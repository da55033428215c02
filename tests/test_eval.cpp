/// Tests for the evaluation subsystem: EPE measurement, PV band, shape
/// violations and the contest score.

#include <gtest/gtest.h>

#include "eval/epe.hpp"
#include "eval/evaluator.hpp"
#include "eval/process_window.hpp"
#include "eval/pvband.hpp"
#include "eval/score.hpp"
#include "eval/shape.hpp"
#include "geometry/bitmap_ops.hpp"
#include "geometry/raster.hpp"
#include "suite/testcases.hpp"
#include "support/parallel.hpp"

namespace mosaic {
namespace {

/// Rectangle raster helper: block [r0, r1) x [c0, c1) set in an n x n grid.
BitGrid block(int n, int r0, int r1, int c0, int c1) {
  BitGrid g(n, n, 0);
  for (int r = r0; r < r1; ++r) {
    for (int c = c0; c < c1; ++c) g(r, c) = 1;
  }
  return g;
}

LithoSimulator& evalSim() {
  static LithoSimulator sim([] {
    OpticsConfig o;
    o.pixelNm = 8;
    return o;
  }());
  return sim;
}

// ------------------------------------------------------------------ epe

class EpeShift : public ::testing::TestWithParam<int> {};

TEST_P(EpeShift, VerticalTranslationMeasuredPerEdge) {
  // Translate the printed block by `shift` rows: the bottom edge recedes
  // (EPE = -shift * px), the top edge advances (+shift * px), vertical
  // edges stay put (EPE = 0).
  const int shift = GetParam();
  const int n = 32;
  const BitGrid target = block(n, 10, 20, 8, 24);
  const BitGrid printed = block(n, 10 + shift, 20 + shift, 8, 24);
  const auto samples = extractSamples(target, 4);
  ASSERT_FALSE(samples.empty());
  const int pixelNm = 4;
  const auto result =
      measureEpe(printed, target, samples, pixelNm, /*thresholdNm=*/14.0);
  // Rows still covered by both target and printed block.
  const int coveredLo = std::max(10, 10 + shift);
  const int coveredHi = std::min(20, 20 + shift);  // exclusive
  int horizontalSamples = 0;
  int lostVertical = 0;
  for (const auto& sr : result.perSample) {
    if (!sr.sample.horizontal) {
      if (sr.sample.along >= coveredLo && sr.sample.along < coveredHi) {
        EXPECT_TRUE(sr.edgeFound);
        EXPECT_NEAR(sr.epeNm, 0.0, 1e-9);
      } else {
        // The translated block no longer spans this row: the scan along
        // the perpendicular finds no edge, which must count as violation.
        EXPECT_FALSE(sr.edgeFound);
        EXPECT_TRUE(sr.violation);
        ++lostVertical;
      }
      continue;
    }
    ++horizontalSamples;
    EXPECT_TRUE(sr.edgeFound);
    const double want = (sr.sample.boundary == 10 ? -shift : shift) * pixelNm;
    EXPECT_NEAR(sr.epeNm, want, 1e-9);
  }
  EXPECT_GT(horizontalSamples, 0);
  // threshold 14 nm -> violations iff |shift| * 4 > 14, i.e. |shift| >= 4.
  const int expectHorizontal =
      (std::abs(shift) * pixelNm > 14) ? horizontalSamples : 0;
  EXPECT_EQ(result.violations, expectHorizontal + lostVertical);
}

INSTANTIATE_TEST_SUITE_P(Shifts, EpeShift, ::testing::Values(-4, -2, 0, 1, 3, 4));

TEST(Epe, MissingFeatureIsViolation) {
  const int n = 32;
  const BitGrid target = block(n, 10, 20, 8, 24);
  const BitGrid printed(n, n, 0);
  const auto samples = extractSamples(target, 4);
  const auto result = measureEpe(printed, target, samples, 4, 14.0);
  EXPECT_EQ(result.violations, static_cast<int>(samples.size()));
  for (const auto& sr : result.perSample) {
    EXPECT_FALSE(sr.edgeFound);
    EXPECT_LT(sr.epeNm, 0.0);  // vanished = negative convention
  }
}

TEST(Epe, BloatedBeyondRangeIsPositiveViolation) {
  const int n = 32;
  const BitGrid target = block(n, 14, 18, 14, 18);
  const BitGrid printed(n, n, 1);  // everything prints
  const auto samples = extractSamples(target, 4, 1);
  ASSERT_FALSE(samples.empty());
  const auto result = measureEpe(printed, target, samples, 4, 14.0, 20.0);
  for (const auto& sr : result.perSample) {
    EXPECT_FALSE(sr.edgeFound);
    EXPECT_GT(sr.epeNm, 0.0);
    EXPECT_TRUE(sr.violation);
  }
}

TEST(Epe, MixedEdgesMeasureIndependently) {
  const int n = 32;
  const BitGrid target = block(n, 10, 20, 8, 24);
  // Shift only the top edge outward by two rows.
  BitGrid printed = target;
  for (int r = 20; r < 22; ++r) {
    for (int c = 8; c < 24; ++c) printed(r, c) = 1;
  }
  const auto samples = extractSamples(target, 4);
  const auto result = measureEpe(printed, target, samples, 4, 14.0);
  for (const auto& sr : result.perSample) {
    if (sr.sample.horizontal && sr.sample.boundary == 20) {
      EXPECT_NEAR(sr.epeNm, 8.0, 1e-9);  // top edge moved out 2 px
    } else if (sr.sample.horizontal && sr.sample.boundary == 10) {
      EXPECT_NEAR(sr.epeNm, 0.0, 1e-9);
    }
  }
  EXPECT_DOUBLE_EQ(result.maxAbsEpeNm, 8.0);
  EXPECT_GT(result.meanAbsEpeNm, 0.0);
}

TEST(Epe, ValidationErrors) {
  const BitGrid a(4, 4, 0);
  const BitGrid b(5, 5, 0);
  EXPECT_THROW(measureEpe(a, b, {}, 4, 14.0), InvalidArgument);
  EXPECT_THROW(measureEpe(a, a, {}, 0, 14.0), InvalidArgument);
  EXPECT_THROW(measureEpe(a, a, {}, 4, -1.0), InvalidArgument);
}

TEST(Epe, EmptySampleListGivesZero) {
  const BitGrid a(4, 4, 0);
  const auto result = measureEpe(a, a, {}, 4, 14.0);
  EXPECT_EQ(result.violations, 0);
  EXPECT_DOUBLE_EQ(result.meanAbsEpeNm, 0.0);
}

// ----------------------------------------------------------- subpixel epe

TEST(EpeAerial, RecoversSubPixelEdgeShift) {
  // Synthetic aerial image: a linear intensity ramp along rows whose
  // threshold crossing sits at a known sub-pixel position.
  const int n = 32;
  const double threshold = 0.5;
  const int pixelNm = 4;
  // Target: block rows 8..16 (boundary at row 16, inside below).
  const BitGrid target = block(n, 8, 16, 4, 28);
  for (double shiftPx : {-0.75, -0.25, 0.0, 0.4, 1.3}) {
    // Intensity 1 inside, falls linearly to 0 across 4 px centered at the
    // shifted edge position 16 + shiftPx (in boundary coordinates).
    RealGrid aerial(n, n, 0.0);
    const double edge = 16.0 + shiftPx;
    for (int r = 0; r < n; ++r) {
      const double center = r + 0.5;
      const double v = 0.5 - (center - edge) / 4.0;
      for (int c = 0; c < n; ++c) {
        aerial(r, c) = std::clamp(v, 0.0, 1.0);
      }
    }
    // One sample on the top edge (boundary 16, insideLow = true).
    std::vector<SamplePoint> samples = {
        SamplePoint{true, 16, 16, true}};
    const auto result = measureEpeAerial(aerial, threshold, target, samples,
                                         pixelNm, 15.0);
    ASSERT_TRUE(result.perSample[0].edgeFound) << "shift " << shiftPx;
    EXPECT_NEAR(result.perSample[0].epeNm, shiftPx * pixelNm, 0.05)
        << "shift " << shiftPx;
  }
}

TEST(EpeAerial, LostEdgeIsViolation) {
  const int n = 16;
  const BitGrid target = block(n, 4, 8, 4, 12);
  const RealGrid aerial(n, n, 0.0);  // nothing prints
  std::vector<SamplePoint> samples = {SamplePoint{true, 8, 8, true}};
  const auto result =
      measureEpeAerial(aerial, 0.5, target, samples, 4, 15.0);
  EXPECT_FALSE(result.perSample[0].edgeFound);
  EXPECT_TRUE(result.perSample[0].violation);
  EXPECT_LT(result.perSample[0].epeNm, 0.0);
}

TEST(EpeAerial, AgreesWithPixelMeasureOnSharpImages) {
  // A steep synthetic profile makes both measurements agree to a pixel.
  LithoSimulator& sim = evalSim();
  Layout l;
  l.name = "bar";
  l.sizeNm = 1024;
  l.addRect(320, 384, 704, 640);
  const BitGrid target = rasterize(l, 8);
  const RealGrid aerial = sim.aerial(toReal(target), nominalCorner());
  const BitGrid printed = sim.printBinary(aerial);
  const auto samples = extractSamples(target, 5);
  const auto pixelRes = measureEpe(printed, target, samples, 8, 15.0);
  const auto subRes = measureEpeAerial(aerial, sim.resist().threshold,
                                       target, samples, 8, 15.0);
  ASSERT_EQ(pixelRes.perSample.size(), subRes.perSample.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!pixelRes.perSample[i].edgeFound || !subRes.perSample[i].edgeFound) {
      continue;
    }
    EXPECT_NEAR(subRes.perSample[i].epeNm, pixelRes.perSample[i].epeNm,
                8.0 + 1e-9);  // within one pixel
  }
}

// --------------------------------------------------------------- pvband

TEST(PvBand, SingleCornerHasNoBand) {
  LithoSimulator& sim = evalSim();
  const BitGrid target = rasterize(
      [] {
        Layout l;
        l.name = "line";
        l.sizeNm = 1024;
        l.addRect(256, 480, 768, 544);
        return l;
      }(),
      8);
  const auto result =
      computePvBand(sim, toReal(target), {nominalCorner()});
  EXPECT_EQ(result.bandPixels, 0);
  EXPECT_EQ(result.outer, result.inner);
}

TEST(PvBand, DoseSpreadCreatesBand) {
  LithoSimulator& sim = evalSim();
  const BitGrid target = rasterize(
      [] {
        Layout l;
        l.name = "line";
        l.sizeNm = 1024;
        l.addRect(256, 480, 768, 544);
        return l;
      }(),
      8);
  const auto result = computePvBand(
      sim, toReal(target), {{0.0, 0.90}, {0.0, 1.10}});
  EXPECT_GT(result.bandPixels, 0);
  // Band area accounts for pixel area (8 nm pixels -> 64 nm^2 each).
  EXPECT_DOUBLE_EQ(result.bandAreaNm2,
                   static_cast<double>(result.bandPixels) * 64.0);
  // outer contains inner.
  EXPECT_EQ(countSet(bitSub(result.inner, result.outer)), 0);
}

TEST(PvBand, MoreCornersNeverShrinkTheBand) {
  LithoSimulator& sim = evalSim();
  const BitGrid target = rasterize(
      [] {
        Layout l;
        l.name = "bar";
        l.sizeNm = 1024;
        l.addRect(320, 320, 704, 512);
        return l;
      }(),
      8);
  const RealGrid mask = toReal(target);
  const auto few = computePvBand(sim, mask, {{0.0, 0.98}, {0.0, 1.02}});
  const auto many = computePvBand(sim, mask, evaluationCorners());
  EXPECT_GE(many.bandPixels, few.bandPixels);
}

TEST(PvBand, EmptyCornerListThrows) {
  LithoSimulator& sim = evalSim();
  const int n = sim.gridSize();
  EXPECT_THROW(computePvBand(sim, RealGrid(n, n, 0.0), {}), InvalidArgument);
}

// ---------------------------------------------------------------- shape

TEST(Shape, CleanPrintHasNoViolations) {
  const BitGrid target = block(16, 4, 12, 4, 12);
  const ShapeResult r = analyzeShape(target, target);
  EXPECT_EQ(r.holes, 0);
  EXPECT_EQ(r.missingFeatures, 0);
  EXPECT_EQ(r.extraFeatures, 0);
  EXPECT_EQ(r.violations(), 0);
}

TEST(Shape, HoleDetected) {
  const BitGrid target = block(16, 4, 12, 4, 12);
  BitGrid printed = target;
  printed(8, 8) = 0;
  const ShapeResult r = analyzeShape(printed, target);
  EXPECT_EQ(r.holes, 1);
  EXPECT_EQ(r.violations(), 1);
}

TEST(Shape, MissingFeatureDetected) {
  BitGrid target = block(16, 2, 6, 2, 6);
  for (int r = 10; r < 14; ++r) {
    for (int c = 10; c < 14; ++c) target(r, c) = 1;
  }
  const BitGrid printed = block(16, 2, 6, 2, 6);  // second blob lost
  const ShapeResult r = analyzeShape(printed, target);
  EXPECT_EQ(r.missingFeatures, 1);
  EXPECT_EQ(r.extraFeatures, 0);
  EXPECT_EQ(r.violations(), 1);
}

TEST(Shape, ExtraFeatureDetected) {
  const BitGrid target = block(16, 2, 6, 2, 6);
  BitGrid printed = target;
  printed(12, 12) = 1;  // SRAF printed through
  const ShapeResult r = analyzeShape(printed, target);
  EXPECT_EQ(r.extraFeatures, 1);
  EXPECT_EQ(r.missingFeatures, 0);
}

TEST(Shape, BrokenFeatureCountsViaOverlap) {
  // A line broken in half still overlaps its target -> not "missing",
  // but the gap creates no hole either; both halves touch the target.
  const BitGrid target = block(16, 7, 9, 2, 14);
  BitGrid printed = target;
  for (int r = 7; r < 9; ++r) printed(r, 8) = 0;
  const ShapeResult r = analyzeShape(printed, target);
  EXPECT_EQ(r.missingFeatures, 0);
  EXPECT_EQ(r.holes, 0);
}

// ---------------------------------------------------------------- score

TEST(Score, ContestFormula) {
  const ScoreWeights w;
  EXPECT_DOUBLE_EQ(contestScore(0, 0, 0, 0, w), 0.0);
  EXPECT_DOUBLE_EQ(contestScore(10, 0, 0, 0, w), 10.0);
  EXPECT_DOUBLE_EQ(contestScore(0, 100, 0, 0, w), 400.0);
  EXPECT_DOUBLE_EQ(contestScore(0, 0, 3, 0, w), 15000.0);
  EXPECT_DOUBLE_EQ(contestScore(0, 0, 0, 2, w), 20000.0);
  EXPECT_DOUBLE_EQ(contestScore(10, 100, 3, 2, w), 35410.0);
}

TEST(Score, CustomWeights) {
  ScoreWeights w;
  w.runtime = 0.0;
  w.epe = 1.0;
  EXPECT_DOUBLE_EQ(contestScore(99, 0, 7, 0, w), 7.0);
}

TEST(Score, NegativeIngredientsRejected) {
  EXPECT_THROW(contestScore(-1, 0, 0, 0), InvalidArgument);
  EXPECT_THROW(contestScore(0, -1, 0, 0), InvalidArgument);
  EXPECT_THROW(contestScore(0, 0, -1, 0), InvalidArgument);
}

// ------------------------------------------------------------ evaluator

TEST(Evaluator, EndToEndOnSimpleLine) {
  LithoSimulator& sim = evalSim();
  Layout l;
  l.name = "line";
  l.sizeNm = 1024;
  l.addRect(256, 480, 768, 544);
  const BitGrid target = rasterize(l, 8);
  const CaseEvaluation ev = evaluateMask(sim, toReal(target), target, 2.0);
  EXPECT_GE(ev.epeViolations, 0);
  EXPECT_GT(ev.pvbandAreaNm2, 0.0);
  EXPECT_DOUBLE_EQ(ev.runtimeSec, 2.0);
  const ScoreWeights w;
  EXPECT_NEAR(ev.score,
              contestScore(2.0, ev.pvbandAreaNm2, ev.epeViolations,
                           ev.shapeViolations, w),
              1e-9);
}

// -------------------------------------------------------- process window

TEST(ProcessWindow, PerfectPrinterHasFullWindow) {
  // A hypothetical mask whose print equals the target at every corner is
  // emulated by measuring the target against itself with huge tolerance.
  LithoSimulator& sim = evalSim();
  Layout l;
  l.name = "bar";
  l.sizeNm = 1024;
  l.addRect(320, 384, 704, 640);
  const BitGrid target = rasterize(l, 8);
  ProcessWindowConfig cfg;
  cfg.epeToleranceNm = 1000.0;  // everything within spec
  cfg.focusSteps = 3;
  cfg.doseSteps = 3;
  const auto w = measureProcessWindow(sim, toReal(target), target, cfg);
  EXPECT_DOUBLE_EQ(w.windowFraction, 1.0);
  EXPECT_DOUBLE_EQ(w.dofNm, cfg.maxFocusNm);
  EXPECT_GT(w.exposureLatitudePct, 0.0);
}

TEST(ProcessWindow, TightToleranceShrinksWindow) {
  LithoSimulator& sim = evalSim();
  Layout l;
  l.name = "bar";
  l.sizeNm = 1024;
  l.addRect(320, 384, 704, 640);
  const BitGrid target = rasterize(l, 8);
  ProcessWindowConfig loose;
  loose.focusSteps = 3;
  loose.doseSteps = 5;
  loose.epeToleranceNm = 30.0;
  ProcessWindowConfig tight = loose;
  tight.epeToleranceNm = 8.0;
  const auto wLoose = measureProcessWindow(sim, toReal(target), target, loose);
  const auto wTight = measureProcessWindow(sim, toReal(target), target, tight);
  EXPECT_LE(wTight.windowFraction, wLoose.windowFraction);
  EXPECT_LE(wTight.dofNm, wLoose.dofNm);
}

TEST(ProcessWindow, MatrixIsCompleteAndIndexed) {
  LithoSimulator& sim = evalSim();
  Layout l;
  l.name = "line";
  l.sizeNm = 1024;
  l.addRect(256, 480, 768, 544);
  const BitGrid target = rasterize(l, 8);
  ProcessWindowConfig cfg;
  cfg.focusSteps = 4;
  cfg.doseSteps = 5;
  const auto w = measureProcessWindow(sim, toReal(target), target, cfg);
  ASSERT_EQ(w.matrix.size(), 20u);
  EXPECT_DOUBLE_EQ(w.at(0, 0).focusNm, 0.0);
  EXPECT_DOUBLE_EQ(w.at(3, 0).focusNm, cfg.maxFocusNm);
  EXPECT_NEAR(w.at(0, 0).dose, 1.0 - cfg.doseSpan, 1e-12);
  EXPECT_NEAR(w.at(0, 4).dose, 1.0 + cfg.doseSpan, 1e-12);
  // Nominal condition sits at the dose midpoint.
  EXPECT_NEAR(w.at(0, 2).dose, 1.0, 1e-12);
}

TEST(ProcessWindow, ConfigValidation) {
  LithoSimulator& sim = evalSim();
  const int n = sim.gridSize();
  const BitGrid target(n, n, 0);
  ProcessWindowConfig cfg;
  cfg.focusSteps = 1;
  EXPECT_THROW(
      measureProcessWindow(sim, RealGrid(n, n, 0.0), target, cfg),
      InvalidArgument);
}

TEST(Evaluator, BlankMaskScoresWorseThanTargetMask) {
  LithoSimulator& sim = evalSim();
  Layout l;
  l.name = "bar";
  l.sizeNm = 1024;
  l.addRect(320, 384, 704, 640);
  const BitGrid target = rasterize(l, 8);
  const int n = sim.gridSize();
  const CaseEvaluation good = evaluateMask(sim, toReal(target), target, 0.0);
  const CaseEvaluation bad =
      evaluateMask(sim, RealGrid(n, n, 0.0), target, 0.0);
  EXPECT_GT(bad.score, good.score);
  EXPECT_GE(bad.missingFeatures, 1);
}

TEST(Evaluator, WorkerCountInvariantBitForBit) {
  // Every distinct corner is imaged and printed in its own pool task and
  // the band is combined in corner order: one worker and four workers
  // must report the same numbers and the same band bitmap.
  LithoSimulator& sim = evalSim();
  const BitGrid target = rasterize(buildTestcase(1), 8);
  const RealGrid mask = toReal(target);
  setParallelism(1);
  const CaseEvaluation serial = evaluateMask(sim, mask, target, 0.0);
  const MaskPrints serialPrints = printMask(sim, mask, evaluationCorners());
  setParallelism(4);
  const CaseEvaluation pooled = evaluateMask(sim, mask, target, 0.0);
  const MaskPrints pooledPrints = printMask(sim, mask, evaluationCorners());
  setParallelism(0);
  EXPECT_EQ(serial.epeViolations, pooled.epeViolations);
  EXPECT_EQ(serial.meanAbsEpeNm, pooled.meanAbsEpeNm);
  EXPECT_EQ(serial.pvbandAreaNm2, pooled.pvbandAreaNm2);
  EXPECT_EQ(serial.score, pooled.score);
  EXPECT_GT(serial.pvbandAreaNm2, 0.0);
  EXPECT_EQ(serialPrints.nominal, pooledPrints.nominal);
  EXPECT_EQ(serialPrints.pvBand.band, pooledPrints.pvBand.band);
  EXPECT_EQ(serialPrints.pvBand.outer, pooledPrints.pvBand.outer);
  EXPECT_EQ(serialPrints.pvBand.inner, pooledPrints.pvBand.inner);
}

}  // namespace
}  // namespace mosaic
