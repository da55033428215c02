#include "eval/evaluator.hpp"

#include "geometry/edges.hpp"
#include "support/error.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

CaseEvaluation evaluateMask(const LithoSimulator& sim, const RealGrid& mask,
                            const BitGrid& target, double runtimeSec,
                            const EvalConfig& config) {
  MOSAIC_SPAN("eval.case");
  return evaluatePrints(printMask(sim, mask, config.corners), target,
                        sim.optics().pixelNm, runtimeSec, config);
}

MaskPrints printMask(const LithoSimulator& sim, const RealGrid& mask,
                     const std::vector<ProcessCorner>& corners) {
  MOSAIC_SPAN("eval.print");
  // Condition 0 is the nominal print, 1 + c is corner c. The litho.aerial
  // and litho.mask_spectrum counters pin one FFT and one SOCS sum per
  // distinct condition in tests/test_backend.cpp.
  std::vector<ProcessCorner> conditions{nominalCorner()};
  conditions.insert(conditions.end(), corners.begin(), corners.end());
  std::vector<BitGrid> prints =
      printConditions(sim, sim.maskSpectrum(mask), conditions);
  MaskPrints out;
  out.pvBand = combinePvBand(std::span<const BitGrid>(prints).subspan(1),
                             sim.optics().pixelNm);
  out.nominal = std::move(prints.front());
  return out;
}

CaseEvaluation evaluatePrints(const MaskPrints& prints, const BitGrid& target,
                              int pixelNm, double runtimeSec,
                              const EvalConfig& config) {
  MOSAIC_CHECK(config.sampleSpacingNm >= pixelNm,
               "sample spacing below pixel pitch");
  CaseEvaluation eval;
  eval.runtimeSec = runtimeSec;

  const auto samples = extractSamples(target, config.sampleSpacingNm / pixelNm);
  const EpeResult epe = measureEpe(prints.nominal, target, samples, pixelNm,
                                   config.epeThresholdNm);
  eval.epeViolations = epe.violations;
  eval.meanAbsEpeNm = epe.meanAbsEpeNm;
  eval.maxAbsEpeNm = epe.maxAbsEpeNm;

  const ShapeResult shape = analyzeShape(prints.nominal, target);
  eval.shapeViolations = shape.violations();
  eval.holes = shape.holes;
  eval.missingFeatures = shape.missingFeatures;

  eval.pvbandAreaNm2 = prints.pvBand.bandAreaNm2;
  eval.score = contestScore(runtimeSec, eval.pvbandAreaNm2,
                            eval.epeViolations, eval.shapeViolations,
                            config.weights);
  return eval;
}

}  // namespace mosaic
