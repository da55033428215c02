#pragma once
/// \file evaluator.hpp
/// One-call mask quality evaluation: nominal print -> EPE, all corners ->
/// PV band, shape check, contest score. This is the metric column set of
/// the paper's Table 2.

#include <vector>

#include "eval/epe.hpp"
#include "eval/pvband.hpp"
#include "eval/score.hpp"
#include "eval/shape.hpp"
#include "litho/simulator.hpp"

namespace mosaic {

struct EvalConfig {
  double epeThresholdNm = 15.0;             ///< th_epe (paper Sec. 4)
  int sampleSpacingNm = 40;                 ///< EPE sample pitch
  std::vector<ProcessCorner> corners = evaluationCorners();
  ScoreWeights weights = {};
};

/// Full quality report for one mask on one testcase.
struct CaseEvaluation {
  int epeViolations = 0;
  double meanAbsEpeNm = 0.0;
  double maxAbsEpeNm = 0.0;
  double pvbandAreaNm2 = 0.0;
  int shapeViolations = 0;
  int holes = 0;
  int missingFeatures = 0;
  double runtimeSec = 0.0;
  double score = 0.0;
};

/// Evaluate a (continuous or binary) mask against a target raster.
/// The mask is used as-is: pass the binarized mask for contest-style
/// numbers. `runtimeSec` is folded into the score (Eq. 22). Equal to
/// evaluatePrints(printMask(sim, mask, config.corners), ...).
CaseEvaluation evaluateMask(const LithoSimulator& sim, const RealGrid& mask,
                            const BitGrid& target, double runtimeSec,
                            const EvalConfig& config = {});

/// What an evaluation judges: the nominal print (EPE, shape) and the PV
/// band over the corner set.
struct MaskPrints {
  BitGrid nominal;
  PvBandResult pvBand;
};

/// The prints of one evaluation, from one forward mask FFT and one imaging
/// step over the nominal condition and `corners` (the nominal print shares
/// the SOCS sum of an equal corner). Callers that also need the images
/// (`mosaic_cli run --images`) keep these instead of printing again.
MaskPrints printMask(const LithoSimulator& sim, const RealGrid& mask,
                     const std::vector<ProcessCorner>& corners);

/// Score prints made by printMask against the target raster.
CaseEvaluation evaluatePrints(const MaskPrints& prints, const BitGrid& target,
                              int pixelNm, double runtimeSec,
                              const EvalConfig& config = {});

}  // namespace mosaic
