/// Tests for the synthetic ICCAD'13-style benchmark suite.

#include <gtest/gtest.h>

#include "geometry/bitmap_ops.hpp"
#include "geometry/raster.hpp"
#include "math/stats.hpp"
#include "suite/testcases.hpp"

namespace mosaic {
namespace {

class AllCases : public ::testing::TestWithParam<int> {};

TEST_P(AllCases, BuildsValidDisjointLayout) {
  const Layout l = buildTestcase(GetParam());
  EXPECT_EQ(l.sizeNm, 1024);
  EXPECT_EQ(l.name, "B" + std::to_string(GetParam()));
  EXPECT_FALSE(l.rects.empty());
  EXPECT_NO_THROW(l.validateDisjoint());
  EXPECT_GT(l.patternArea(), 0);
}

TEST_P(AllCases, FeaturesKeepClipMargin) {
  // The optical model wraps cyclically; the suite must keep features away
  // from the clip border.
  const Layout l = buildTestcase(GetParam());
  for (const auto& r : l.rects) {
    EXPECT_GE(r.x0, 128);
    EXPECT_GE(r.y0, 128);
    EXPECT_LE(r.x1, 1024 - 128);
    EXPECT_LE(r.y1, 1024 - 128);
  }
}

TEST_P(AllCases, CoordinatesAlignToRasterGrid) {
  // All coordinates are multiples of 8 nm so pixel sizes 1/2/4/8 rasterize
  // exactly.
  const Layout l = buildTestcase(GetParam());
  for (const auto& r : l.rects) {
    EXPECT_EQ(r.x0 % 8, 0);
    EXPECT_EQ(r.y0 % 8, 0);
    EXPECT_EQ(r.x1 % 8, 0);
    EXPECT_EQ(r.y1 % 8, 0);
  }
}

TEST_P(AllCases, MinimumFeatureWidthAtLeast48nm) {
  const Layout l = buildTestcase(GetParam());
  for (const auto& r : l.rects) {
    EXPECT_GE(std::min(r.width(), r.height()), 48)
        << "rect in " << l.name << " thinner than 48 nm";
  }
}

TEST_P(AllCases, RasterAreaMatchesGeometry) {
  const Layout l = buildTestcase(GetParam());
  const BitGrid g = rasterize(l, 4);
  EXPECT_EQ(popcount(g) * 16, l.patternArea());
}

TEST_P(AllCases, RasterConsistentAcrossPixelSizes) {
  const Layout l = buildTestcase(GetParam());
  const long long area = l.patternArea();
  for (int px : {2, 4, 8}) {
    const BitGrid g = rasterize(l, px);
    EXPECT_EQ(popcount(g) * px * px, area) << "pixel " << px;
  }
}

INSTANTIATE_TEST_SUITE_P(B, AllCases, ::testing::Range(1, 11));

TEST(Suite, BuildAllReturnsTen) {
  const auto all = buildAllTestcases();
  ASSERT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    std::string name = "B";
    name += std::to_string(i + 1);
    EXPECT_EQ(all[static_cast<std::size_t>(i)].name, name);
  }
}

TEST(Suite, ByNameLookup) {
  EXPECT_EQ(buildTestcaseByName("B3").name, "B3");
  EXPECT_EQ(buildTestcaseByName("b10").name, "B10");
  EXPECT_THROW(buildTestcaseByName("C1"), InvalidArgument);
  EXPECT_THROW(buildTestcaseByName("Bx"), InvalidArgument);
  EXPECT_THROW(buildTestcaseByName("B0"), InvalidArgument);
  EXPECT_THROW(buildTestcase(11), InvalidArgument);
}

TEST(Suite, ExpectedTopology) {
  // Shape-family expectations: component counts at 4 nm raster.
  struct Expect {
    int index;
    int components;
  };
  const Expect expects[] = {
      {1, 1},   // single line
      {2, 5},   // five dense lines
      {3, 9},   // 3x3 contact array
      {5, 1},   // comb is connected
      {8, 2},   // U plus island
  };
  for (const auto& e : expects) {
    const BitGrid g = rasterize(buildTestcase(e.index), 4);
    EXPECT_EQ(countComponents(g), e.components) << "B" << e.index;
  }
}

// ------------------------------------------------------------ random clips

class RandomClips : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomClips, ValidDisjointAndInClip) {
  const Layout l = buildRandomClip(GetParam());
  EXPECT_EQ(l.sizeNm, 1024);
  EXPECT_NO_THROW(l.validateDisjoint());
  EXPECT_GT(l.patternArea(), 0);
  const RandomClipConfig cfg;
  for (const auto& r : l.rects) {
    EXPECT_GE(r.x0, cfg.marginNm);
    EXPECT_GE(r.y0, cfg.marginNm);
    EXPECT_LE(r.x1, 1024 - cfg.marginNm);
    EXPECT_LE(r.y1, 1024 - cfg.marginNm);
    EXPECT_GE(std::min(r.width(), r.height()), cfg.minCdNm);
    EXPECT_EQ(r.x0 % cfg.gridNm, 0);
    EXPECT_EQ(r.y1 % cfg.gridNm, 0);
  }
}

TEST_P(RandomClips, DeterministicPerSeed) {
  const Layout a = buildRandomClip(GetParam());
  const Layout b = buildRandomClip(GetParam());
  ASSERT_EQ(a.rects.size(), b.rects.size());
  for (std::size_t i = 0; i < a.rects.size(); ++i) {
    EXPECT_EQ(a.rects[i], b.rects[i]);
  }
}

TEST_P(RandomClips, RasterizesCleanly) {
  const Layout l = buildRandomClip(GetParam());
  const BitGrid g = rasterize(l, 8);
  EXPECT_EQ(popcount(g) * 64, l.patternArea());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomClips,
                         ::testing::Values(1, 7, 42, 1000, 31337));

TEST(RandomClips, DifferentSeedsDiffer) {
  const Layout a = buildRandomClip(5);
  const Layout b = buildRandomClip(6);
  EXPECT_TRUE(a.rects.size() != b.rects.size() || !(a.rects == b.rects));
}

TEST(RandomClips, ConfigValidation) {
  RandomClipConfig cfg;
  cfg.featureCount = 0;
  EXPECT_THROW(buildRandomClip(1, cfg), InvalidArgument);
  cfg = RandomClipConfig{};
  cfg.maxCdNm = cfg.minCdNm - 8;
  EXPECT_THROW(buildRandomClip(1, cfg), InvalidArgument);
}

TEST(Suite, DifficultyRoughlyIncreasesWithIndex) {
  // Not a strict ordering, but the busiest clips must carry more edge
  // length than the simplest one.
  auto edgeLength = [](int index) {
    const BitGrid g = rasterize(buildTestcase(index), 4);
    long long edges = 0;
    for (int r = 0; r < g.rows(); ++r) {
      for (int c = 0; c + 1 < g.cols(); ++c) {
        edges += (g(r, c) != g(r, c + 1));
      }
    }
    for (int c = 0; c < g.cols(); ++c) {
      for (int r = 0; r + 1 < g.rows(); ++r) {
        edges += (g(r, c) != g(r + 1, c));
      }
    }
    return edges;
  };
  EXPECT_GT(edgeLength(10), edgeLength(1));
  EXPECT_GT(edgeLength(2), edgeLength(1));
}

}  // namespace
}  // namespace mosaic
