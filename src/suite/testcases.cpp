#include "suite/testcases.hpp"

#include <algorithm>
#include <cstdint>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace mosaic {
namespace {

constexpr int kClip = 1024;

Layout makeLayout(const std::string& name) {
  Layout layout;
  layout.name = name;
  layout.sizeNm = kClip;
  return layout;
}

/// B1: isolated horizontal line -- the simplest printability test; line-end
/// pullback dominates the EPE count.
Layout buildB1() {
  Layout l = makeLayout("B1");
  l.addRect(224, 480, 800, 544);  // 576 x 64 line
  return l;
}

/// B2: dense vertical line/space array (5 lines, 64 nm CD, 136 nm pitch).
Layout buildB2() {
  Layout l = makeLayout("B2");
  for (int i = 0; i < 5; ++i) {
    const int x0 = 240 + i * 136;
    l.addRect(x0, 232, x0 + 64, 792);
  }
  return l;
}

/// B3: contact/island array (3 x 3 squares of 72 nm at 200 nm pitch) --
/// corner rounding stress.
Layout buildB3() {
  Layout l = makeLayout("B3");
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const int x0 = 280 + j * 200;
      const int y0 = 280 + i * 200;
      l.addRect(x0, y0, x0 + 72, y0 + 72);
    }
  }
  return l;
}

/// B4: T-shape with a parallel bar (the paper's Fig. 5 shows B4 as a
/// multi-branch shape).
Layout buildB4() {
  Layout l = makeLayout("B4");
  l.addRect(256, 608, 768, 672);  // top horizontal bar of the T
  l.addRect(480, 320, 544, 608);  // stem
  l.addRect(256, 416, 392, 480);  // left neighbor bar
  l.addRect(632, 416, 768, 480);  // right neighbor bar
  return l;
}

/// B5: comb -- horizontal spine with four vertical teeth, a classic OPC
/// stress shape (dense line ends adjacent to a long edge).
Layout buildB5() {
  Layout l = makeLayout("B5");
  l.addRect(240, 272, 784, 336);  // spine
  for (int i = 0; i < 4; ++i) {
    const int x0 = 272 + i * 128;
    l.addRect(x0, 336, x0 + 64, 704);  // teeth (abut the spine)
  }
  return l;
}

/// B6: irregular Manhattan composition: staircase plus island plus L.
Layout buildB6() {
  Layout l = makeLayout("B6");
  // Staircase of three abutting rectangles.
  l.addRect(240, 560, 472, 624);
  l.addRect(408, 624, 472, 768);
  l.addRect(472, 704, 696, 768);
  // L-shape lower right.
  l.addRect(568, 304, 632, 560);
  l.addRect(632, 304, 792, 368);
  // Isolated island lower left.
  l.addRect(264, 336, 368, 440);
  return l;
}

/// B7: line-end stress -- collinear line pairs with sub-100 nm tip-to-tip
/// gaps at two pitches, plus an orthogonal line closing one gap side.
Layout buildB7() {
  Layout l = makeLayout("B7");
  // Pair 1: 88 nm gap.
  l.addRect(232, 632, 464, 696);
  l.addRect(552, 632, 792, 696);
  // Pair 2: 112 nm gap, closer to the orthogonal line.
  l.addRect(232, 456, 456, 520);
  l.addRect(568, 456, 792, 520);
  // Orthogonal vertical line below the gaps.
  l.addRect(480, 248, 544, 400);
  return l;
}

/// B8: U-shape wrapped around an island -- tests inner corner fidelity and
/// bridging between close parallel edges.
Layout buildB8() {
  Layout l = makeLayout("B8");
  l.addRect(288, 320, 352, 704);  // left arm
  l.addRect(672, 320, 736, 704);  // right arm
  l.addRect(352, 320, 672, 384);  // bottom
  l.addRect(456, 496, 568, 608);  // island inside the U
  return l;
}

/// B9: mixed critical dimensions: a 48 nm line (most aggressive CD), a
/// 96 nm bar and a jogged route.
Layout buildB9() {
  Layout l = makeLayout("B9");
  l.addRect(248, 672, 776, 720);  // 48 nm horizontal line
  l.addRect(248, 456, 520, 552);  // 96 nm wide bar
  // Jog: horizontal, down, horizontal.
  l.addRect(600, 488, 784, 552);
  l.addRect(600, 312, 664, 488);
  l.addRect(296, 280, 536, 344);
  return l;
}

/// B10: dense mixed composition -- the busiest clip: line/space block,
/// contact pair, comb tooth and a long route with two jogs.
Layout buildB10() {
  Layout l = makeLayout("B10");
  // Line/space block upper left (3 lines, 56 CD / 112 pitch).
  for (int i = 0; i < 3; ++i) {
    const int y0 = 600 + i * 112;
    l.addRect(216, y0, 560, y0 + 56);
  }
  // Contact pair upper right.
  l.addRect(672, 688, 752, 768);
  l.addRect(672, 544, 752, 624);
  // Route with jogs across the bottom.
  l.addRect(216, 280, 480, 344);
  l.addRect(416, 344, 480, 472);
  l.addRect(480, 408, 720, 472);
  l.addRect(656, 280, 720, 408);
  // Short stub near the route.
  l.addRect(776, 280, 840, 472);
  return l;
}

}  // namespace

Layout buildTestcase(int index) {
  switch (index) {
    case 1:
      return buildB1();
    case 2:
      return buildB2();
    case 3:
      return buildB3();
    case 4:
      return buildB4();
    case 5:
      return buildB5();
    case 6:
      return buildB6();
    case 7:
      return buildB7();
    case 8:
      return buildB8();
    case 9:
      return buildB9();
    case 10:
      return buildB10();
    default:
      throw InvalidArgument("testcase index must be in [1, 10], got " +
                            std::to_string(index));
  }
}

std::vector<Layout> buildAllTestcases() {
  std::vector<Layout> cases;
  cases.reserve(kTestcaseCount);
  for (int i = 1; i <= kTestcaseCount; ++i) cases.push_back(buildTestcase(i));
  return cases;
}

Layout buildRandomClip(std::uint64_t seed, const RandomClipConfig& cfg) {
  MOSAIC_CHECK(cfg.featureCount >= 1, "need at least one feature");
  MOSAIC_CHECK(cfg.minCdNm >= cfg.gridNm && cfg.maxCdNm >= cfg.minCdNm,
               "CD range invalid");
  MOSAIC_CHECK(cfg.minLengthNm >= cfg.minCdNm &&
                   cfg.maxLengthNm >= cfg.minLengthNm,
               "length range invalid");
  Rng rng(seed);
  std::string name = "R";
  name += std::to_string(seed);
  Layout layout = makeLayout(name);

  auto snap = [&](int v) { return (v / cfg.gridNm) * cfg.gridNm; };
  auto randomIn = [&](int lo, int hi) {
    return snap(lo + static_cast<int>(rng.below(
                         static_cast<std::uint64_t>(hi - lo + 1))));
  };

  // Spacing check against already placed rects (Chebyshev expansion).
  // `skipLast` exempts the most recent rect so an L-arm may abut its own
  // bar while still keeping distance from everything else.
  auto farEnough = [&](const RectNm& r, bool skipLast = false) {
    const std::size_t count =
        layout.rects.size() - (skipLast && !layout.rects.empty() ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) {
      const RectNm& placed = layout.rects[i];
      const RectNm inflated{placed.x0 - cfg.minSpacingNm,
                            placed.y0 - cfg.minSpacingNm,
                            placed.x1 + cfg.minSpacingNm,
                            placed.y1 + cfg.minSpacingNm};
      if (inflated.intersects(r)) return false;
    }
    return true;
  };

  const int lo = cfg.marginNm;
  const int hi = kClip - cfg.marginNm;
  int placed = 0;
  int attempts = 0;
  while (placed < cfg.featureCount && attempts < cfg.featureCount * 40) {
    ++attempts;
    const int kind = static_cast<int>(rng.below(4));
    const int cd = randomIn(cfg.minCdNm, cfg.maxCdNm);
    const int len = randomIn(cfg.minLengthNm, cfg.maxLengthNm);
    const int w = (kind == 0) ? len : cd;   // 0: horizontal bar
    const int h = (kind == 0) ? cd : (kind == 1 ? len : cd + len / 2);
    const int width = (kind == 2) ? cd + len / 2 : w;   // 2: square-ish pad
    const int height = (kind == 1) ? h : (kind == 2 ? cd + len / 2 : h);
    const int spanX = std::min(width, hi - lo - cfg.gridNm);
    const int spanY = std::min(height, hi - lo - cfg.gridNm);
    const int x0 = randomIn(lo, hi - spanX);
    const int y0 = randomIn(lo, hi - spanY);
    RectNm rect{x0, y0, snap(x0 + spanX), snap(y0 + spanY)};
    if (!rect.valid() || !farEnough(rect)) continue;
    layout.addRect(rect.x0, rect.y0, rect.x1, rect.y1);
    ++placed;
    // L-shapes: append a perpendicular arm abutting the bar (same
    // component, no spacing requirement against its own body).
    if (kind == 3 && rect.width() >= 2 * cfg.minCdNm) {
      const int armW = snap(std::max(cfg.minCdNm, cd));
      const int armH = snap(std::min(len, hi - rect.y1));
      RectNm arm{rect.x1 - armW, rect.y1, rect.x1, rect.y1 + armH};
      if (arm.valid() && arm.y1 <= hi && farEnough(arm, /*skipLast=*/true)) {
        layout.addRect(arm.x0, arm.y0, arm.x1, arm.y1);
      }
    }
  }
  MOSAIC_CHECK(!layout.rects.empty(),
               "random clip generation placed no features (seed "
                   << seed << ")");
  return layout;
}

Layout buildTestcaseByName(const std::string& name) {
  MOSAIC_CHECK(name.size() >= 2 && (name[0] == 'B' || name[0] == 'b'),
               "testcase names look like B1..B10, got: " << name);
  int index = 0;
  try {
    index = std::stoi(name.substr(1));
  } catch (const std::exception&) {
    throw InvalidArgument("cannot parse testcase name: " + name);
  }
  return buildTestcase(index);
}

}  // namespace mosaic
