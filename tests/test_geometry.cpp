/// Unit tests for the geometry library: layouts, rasterization, edge and
/// sample extraction, bitmap morphology and topology.

#include <gtest/gtest.h>

#include <algorithm>

#include "geometry/bitmap_ops.hpp"
#include "geometry/edges.hpp"
#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "math/stats.hpp"

namespace mosaic {
namespace {

Layout singleRectLayout(int x0, int y0, int x1, int y1, int clip = 64) {
  Layout l;
  l.name = "test";
  l.sizeNm = clip;
  l.addRect(x0, y0, x1, y1);
  return l;
}

// --------------------------------------------------------------- layout

TEST(Layout, RectBasics) {
  RectNm r{10, 20, 30, 50};
  EXPECT_EQ(r.width(), 20);
  EXPECT_EQ(r.height(), 30);
  EXPECT_EQ(r.area(), 600);
  EXPECT_TRUE(r.valid());
  EXPECT_TRUE(r.contains(10.0, 20.0));
  EXPECT_FALSE(r.contains(30.0, 20.0));  // half-open
}

TEST(Layout, RectIntersection) {
  RectNm a{0, 0, 10, 10};
  RectNm b{10, 0, 20, 10};  // abutting, not intersecting
  RectNm c{5, 5, 15, 15};
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(a.intersects(c));
  EXPECT_TRUE(c.intersects(b));
}

TEST(Layout, AddRectValidation) {
  Layout l;
  l.name = "v";
  l.sizeNm = 100;
  EXPECT_THROW(l.addRect(10, 10, 10, 20), InvalidArgument);   // degenerate
  EXPECT_THROW(l.addRect(-5, 0, 10, 10), InvalidArgument);    // out of clip
  EXPECT_THROW(l.addRect(0, 0, 101, 10), InvalidArgument);    // out of clip
  EXPECT_NO_THROW(l.addRect(0, 0, 100, 100));
}

TEST(Layout, CoversUnion) {
  Layout l;
  l.name = "u";
  l.sizeNm = 100;
  l.addRect(0, 0, 10, 10);
  l.addRect(20, 20, 30, 30);
  EXPECT_TRUE(l.covers(5, 5));
  EXPECT_TRUE(l.covers(25, 25));
  EXPECT_FALSE(l.covers(15, 15));
}

TEST(Layout, PatternAreaAndOverlapDetection) {
  Layout l;
  l.name = "a";
  l.sizeNm = 100;
  l.addRect(0, 0, 10, 10);
  l.addRect(10, 0, 20, 10);  // abutting is fine
  EXPECT_EQ(l.patternArea(), 200);
  l.addRect(5, 5, 15, 15);  // overlaps both
  EXPECT_THROW((void)l.patternArea(), InvalidArgument);
}

// --------------------------------------------------------------- raster

class RasterPixelSizes : public ::testing::TestWithParam<int> {};

TEST_P(RasterPixelSizes, ExactAreaForAlignedRect) {
  const int px = GetParam();
  const Layout l = singleRectLayout(8, 16, 40, 48, 64);
  const BitGrid g = rasterize(l, px);
  EXPECT_EQ(g.rows(), 64 / px);
  // 32 x 32 nm rect -> (32/px)^2 pixels.
  EXPECT_EQ(popcount(g), static_cast<long long>(32 / px) * (32 / px));
}

INSTANTIATE_TEST_SUITE_P(Pixels, RasterPixelSizes,
                         ::testing::Values(1, 2, 4, 8));

TEST(Raster, PixelMustDivideClip) {
  const Layout l = singleRectLayout(0, 0, 10, 10, 100);
  EXPECT_THROW(rasterize(l, 3), InvalidArgument);
  EXPECT_THROW(gridSizeFor(l, 0), InvalidArgument);
}

TEST(Raster, PlacementMatchesCoordinates) {
  const Layout l = singleRectLayout(4, 8, 12, 16, 32);
  const BitGrid g = rasterize(l, 4);
  // x in [4,12) -> cols 1..2; y in [8,16) -> rows 2..3.
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      const bool want = (c >= 1 && c < 3 && r >= 2 && r < 4);
      EXPECT_EQ(g(r, c) != 0, want) << "at (" << r << "," << c << ")";
    }
  }
}

TEST(Raster, UnalignedRectUsesCenterSampling) {
  // Rect [3, 9) at 4 nm pixels: pixel 0 center 2 (out), pixel 1 center 6
  // (in), pixel 2 center 10 (out).
  Layout l;
  l.name = "c";
  l.sizeNm = 16;
  l.addRect(3, 0, 9, 16);
  const BitGrid g = rasterize(l, 4);
  EXPECT_EQ(g(0, 0), 0u);
  EXPECT_EQ(g(0, 1), 1u);
  EXPECT_EQ(g(0, 2), 0u);
}

TEST(RasterGray, MatchesBinaryForAlignedLayouts) {
  const Layout l = singleRectLayout(8, 16, 40, 48, 64);
  const RealGrid gray = rasterizeGray(l, 4);
  const BitGrid binary = rasterize(l, 4);
  for (std::size_t i = 0; i < gray.size(); ++i) {
    EXPECT_DOUBLE_EQ(gray.data()[i], binary.data()[i] ? 1.0 : 0.0);
  }
}

TEST(RasterGray, PartialCoverageIsExactFraction) {
  // Rect [3, 9) x [0, 16) at 4 nm pixels: pixel column 0 covers x [0,4):
  // overlap [3,4) = 1/4; column 1 fully covered; column 2 covers [8,9) =
  // 1/4.
  Layout l;
  l.name = "frac";
  l.sizeNm = 16;
  l.addRect(3, 0, 9, 16);
  const RealGrid gray = rasterizeGray(l, 4);
  EXPECT_DOUBLE_EQ(gray(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(gray(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(gray(0, 2), 0.25);
  EXPECT_DOUBLE_EQ(gray(0, 3), 0.0);
}

TEST(RasterGray, TotalCoverageEqualsArea) {
  Layout l;
  l.name = "two";
  l.sizeNm = 64;
  l.addRect(5, 7, 23, 29);   // unaligned
  l.addRect(30, 30, 61, 53);
  const RealGrid gray = rasterizeGray(l, 4);
  double covered = 0.0;
  for (double v : gray) covered += v;
  EXPECT_NEAR(covered * 16.0, static_cast<double>(l.patternArea()), 1e-9);
}

TEST(RasterGray, AbuttingRectsSumToOne) {
  Layout l;
  l.name = "abut";
  l.sizeNm = 16;
  l.addRect(0, 0, 6, 16);
  l.addRect(6, 0, 16, 16);  // pixel 1 covers x [4,8): 0.5 + 0.5
  const RealGrid gray = rasterizeGray(l, 4);
  EXPECT_DOUBLE_EQ(gray(0, 1), 1.0);
}

// ---------------------------------------------------------------- edges

TEST(Edges, SingleRectHasFourEdges) {
  const Layout l = singleRectLayout(8, 8, 40, 24, 64);
  const BitGrid g = rasterize(l, 8);  // rect = cols 1..4, rows 1..2
  const auto edges = extractEdges(g);
  ASSERT_EQ(edges.size(), 4u);
  int horizontal = 0;
  int vertical = 0;
  for (const auto& e : edges) {
    if (e.horizontal) {
      ++horizontal;
      EXPECT_EQ(e.length(), 4);
    } else {
      ++vertical;
      EXPECT_EQ(e.length(), 2);
    }
  }
  EXPECT_EQ(horizontal, 2);
  EXPECT_EQ(vertical, 2);
}

TEST(Edges, PolarityOfTopAndBottom) {
  const Layout l = singleRectLayout(8, 8, 40, 24, 64);
  const BitGrid g = rasterize(l, 8);
  const auto edges = extractEdges(g);
  for (const auto& e : edges) {
    if (!e.horizontal) continue;
    if (e.boundary == 1) {
      EXPECT_FALSE(e.insideLow);  // bottom edge: pattern above
    } else {
      EXPECT_EQ(e.boundary, 3);
      EXPECT_TRUE(e.insideLow);  // top edge: pattern below
    }
  }
}

TEST(Edges, LShapeEdgeCount) {
  // L-shape: 8 boundary segments (6 corners -> 6 edges in rectilinear
  // geometry... an L has 6 edges).
  Layout l;
  l.name = "L";
  l.sizeNm = 64;
  l.addRect(8, 8, 24, 40);
  l.addRect(24, 8, 48, 24);
  const BitGrid g = rasterize(l, 8);
  const auto edges = extractEdges(g);
  EXPECT_EQ(edges.size(), 6u);
}

TEST(Edges, PatternTouchingBorderStillProducesEdges) {
  Layout l;
  l.name = "b";
  l.sizeNm = 32;
  l.addRect(0, 0, 32, 16);
  const BitGrid g = rasterize(l, 8);
  const auto edges = extractEdges(g);
  // bottom (boundary 0), top (boundary 2), left (0), right (4).
  EXPECT_EQ(edges.size(), 4u);
}

TEST(Edges, PolarityFlipSplitsRuns) {
  // Two blocks meeting at the same boundary line from opposite sides:
  // the boundary row carries two runs with opposite polarity, which must
  // not be merged into one segment.
  BitGrid g(4, 6, 0);
  g(0, 0) = g(0, 1) = g(0, 2) = 1;  // below boundary 1, cols 0..2
  g(1, 3) = g(1, 4) = g(1, 5) = 1;  // above boundary 1, cols 3..5
  const auto edges = extractEdges(g);
  int runsAtBoundary1 = 0;
  for (const auto& e : edges) {
    if (e.horizontal && e.boundary == 1) {
      ++runsAtBoundary1;
      EXPECT_EQ(e.length(), 3);
    }
  }
  EXPECT_EQ(runsAtBoundary1, 2);
}

TEST(Edges, CheckerboardEveryPixelIsItsOwnIsland) {
  BitGrid g(4, 4, 0);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) g(r, c) = (r + c) % 2;
  }
  const auto edges = extractEdges(g);
  // 8 set pixels, each contributing 4 unit edges; no merges are possible
  // along a boundary without a polarity flip between adjacent tracks.
  long long total = 0;
  for (const auto& e : edges) total += e.length();
  EXPECT_EQ(total, 8 * 4);
}

TEST(Samples, SpacingAndCount) {
  std::vector<EdgeSegment> edges = {
      {true, 4, 0, 39, true},  // length 40
  };
  const auto samples = placeSamples(edges, 10);
  ASSERT_EQ(samples.size(), 4u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].along - samples[i - 1].along, 10);
  }
  // Centered: margins roughly equal.
  EXPECT_GE(samples.front().along, 0);
  EXPECT_LE(samples.back().along, 39);
}

TEST(Samples, ShortRunGetsMidpoint) {
  std::vector<EdgeSegment> edges = {{false, 2, 10, 14, false}};  // length 5
  const auto samples = placeSamples(edges, 10);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].along, 12);
  EXPECT_FALSE(samples[0].horizontal);
}

TEST(Samples, TooShortRunSkipped) {
  std::vector<EdgeSegment> edges = {{true, 2, 10, 10, false}};  // length 1
  EXPECT_TRUE(placeSamples(edges, 10, 2).empty());
}

TEST(Samples, InvalidSpacingThrows) {
  EXPECT_THROW(placeSamples({}, 0), InvalidArgument);
  EXPECT_THROW(placeSamples({}, 5, 0), InvalidArgument);
}

TEST(Samples, RectEndToEnd) {
  const Layout l = singleRectLayout(8, 8, 56, 24, 64);
  const BitGrid g = rasterize(l, 2);  // rect 24x8 px at rows 4..11, cols 4..27
  const auto samples = extractSamples(g, 10);
  EXPECT_GT(samples.size(), 4u);
  for (const auto& s : samples) {
    if (s.horizontal) {
      EXPECT_TRUE(s.boundary == 4 || s.boundary == 12);
    } else {
      EXPECT_TRUE(s.boundary == 4 || s.boundary == 28);
    }
  }
}

// ----------------------------------------------------------- bitmap ops

TEST(BitmapOps, BooleanTruthTables) {
  BitGrid a(1, 4);
  BitGrid b(1, 4);
  a(0, 0) = 0; b(0, 0) = 0;
  a(0, 1) = 0; b(0, 1) = 1;
  a(0, 2) = 1; b(0, 2) = 0;
  a(0, 3) = 1; b(0, 3) = 1;
  const BitGrid andG = bitAnd(a, b);
  const BitGrid orG = bitOr(a, b);
  const BitGrid xorG = bitXor(a, b);
  const BitGrid notG = bitNot(a);
  const BitGrid subG = bitSub(a, b);
  const unsigned char andWant[] = {0, 0, 0, 1};
  const unsigned char orWant[] = {0, 1, 1, 1};
  const unsigned char xorWant[] = {0, 1, 1, 0};
  const unsigned char notWant[] = {1, 1, 0, 0};
  const unsigned char subWant[] = {0, 0, 1, 0};
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(andG(0, c), andWant[c]);
    EXPECT_EQ(orG(0, c), orWant[c]);
    EXPECT_EQ(xorG(0, c), xorWant[c]);
    EXPECT_EQ(notG(0, c), notWant[c]);
    EXPECT_EQ(subG(0, c), subWant[c]);
  }
}

TEST(BitmapOps, ShapeMismatchThrows) {
  BitGrid a(2, 2);
  BitGrid b(2, 3);
  EXPECT_THROW(bitAnd(a, b), InvalidArgument);
  EXPECT_THROW(bitOr(a, b), InvalidArgument);
  EXPECT_THROW(bitXor(a, b), InvalidArgument);
  EXPECT_THROW(bitSub(a, b), InvalidArgument);
}

TEST(BitmapOps, DilateGrowsSquare) {
  BitGrid g(9, 9, 0);
  g(4, 4) = 1;
  const BitGrid d = dilateSquare(g, 2);
  EXPECT_EQ(countSet(d), 25);  // 5x5 block
  for (int r = 2; r <= 6; ++r) {
    for (int c = 2; c <= 6; ++c) EXPECT_EQ(d(r, c), 1u);
  }
}

TEST(BitmapOps, DilateRadiusZeroIsIdentity) {
  BitGrid g(4, 4, 0);
  g(1, 2) = 1;
  EXPECT_EQ(dilateSquare(g, 0), g);
  EXPECT_EQ(erodeSquare(g, 0), g);
  EXPECT_THROW(dilateSquare(g, -1), InvalidArgument);
}

TEST(BitmapOps, ErodeShrinksBlock) {
  BitGrid g(9, 9, 0);
  for (int r = 2; r <= 6; ++r) {
    for (int c = 2; c <= 6; ++c) g(r, c) = 1;
  }
  const BitGrid e = erodeSquare(g, 1);
  EXPECT_EQ(countSet(e), 9);  // 3x3 core
  EXPECT_EQ(e(4, 4), 1u);
  EXPECT_EQ(e(2, 2), 0u);
}

TEST(BitmapOps, ErodeOfDilateContainsOriginal) {
  BitGrid g(16, 16, 0);
  for (int r = 5; r <= 9; ++r) {
    for (int c = 4; c <= 11; ++c) g(r, c) = 1;
  }
  const BitGrid closed = erodeSquare(dilateSquare(g, 2), 2);
  // Closing is extensive on this convex shape: equals the original.
  EXPECT_EQ(closed, g);
}

TEST(BitmapOps, DilationAtImageBorderClamps) {
  BitGrid g(4, 4, 0);
  g(0, 0) = 1;
  const BitGrid d = dilateSquare(g, 1);
  EXPECT_EQ(countSet(d), 4);  // 2x2 corner block
}

TEST(BitmapOps, ManhattanDistanceKnownField) {
  BitGrid g(3, 3, 0);
  g(1, 1) = 1;
  const Grid<int> d = manhattanDistance(g);
  EXPECT_EQ(d(1, 1), 0);
  EXPECT_EQ(d(0, 1), 1);
  EXPECT_EQ(d(0, 0), 2);
  EXPECT_EQ(d(2, 2), 2);
}

TEST(BitmapOps, ManhattanDistanceEmptyGrid) {
  BitGrid g(3, 4, 0);
  const Grid<int> d = manhattanDistance(g);
  EXPECT_EQ(d(0, 0), 7);  // rows+cols sentinel
}

TEST(BitmapOps, ComponentsFourVsEightConnectivity) {
  BitGrid g(4, 4, 0);
  g(0, 0) = 1;
  g(1, 1) = 1;  // diagonal neighbors
  EXPECT_EQ(countComponents(g, false), 2);
  EXPECT_EQ(countComponents(g, true), 1);
}

TEST(BitmapOps, ComponentLabelsAreConsistent) {
  BitGrid g(5, 5, 0);
  g(0, 0) = 1;
  g(0, 1) = 1;
  g(4, 4) = 1;
  int count = 0;
  const Grid<int> labels = labelComponents(g, false, &count);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(labels(0, 0), labels(0, 1));
  EXPECT_NE(labels(0, 0), labels(4, 4));
  EXPECT_EQ(labels(2, 2), 0);
}

TEST(BitmapOps, DonutHasOneHole) {
  BitGrid g(7, 7, 0);
  for (int r = 1; r <= 5; ++r) {
    for (int c = 1; c <= 5; ++c) g(r, c) = 1;
  }
  g(3, 3) = 0;
  EXPECT_EQ(countHoles(g), 1);
}

TEST(BitmapOps, OpenBayIsNotAHole) {
  // Background notch connected to the border must not count.
  BitGrid g(5, 5, 0);
  for (int r = 1; r <= 3; ++r) {
    for (int c = 1; c <= 3; ++c) g(r, c) = 1;
  }
  g(1, 2) = 0;  // notch opening to the top border via (0,2)
  EXPECT_EQ(countHoles(g), 0);
}

TEST(BitmapOps, SolidGridHasNoHoles) {
  BitGrid g(4, 4, 1);
  EXPECT_EQ(countHoles(g), 0);
  BitGrid empty(4, 4, 0);
  EXPECT_EQ(countHoles(empty), 0);
}

TEST(BitmapOps, TwoHolesCounted) {
  BitGrid g(5, 9, 0);
  for (int r = 1; r <= 3; ++r) {
    for (int c = 1; c <= 7; ++c) g(r, c) = 1;
  }
  g(2, 2) = 0;
  g(2, 6) = 0;
  EXPECT_EQ(countHoles(g), 2);
}

}  // namespace
}  // namespace mosaic
