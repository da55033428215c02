#include "eval/process_window.hpp"

#include "eval/epe.hpp"
#include "eval/shape.hpp"
#include "geometry/edges.hpp"
#include "support/error.hpp"

namespace mosaic {

ProcessWindowResult measureProcessWindow(const LithoSimulator& sim,
                                         const RealGrid& mask,
                                         const BitGrid& target,
                                         const ProcessWindowConfig& config) {
  MOSAIC_CHECK(config.focusSteps >= 2 && config.doseSteps >= 2,
               "need at least two steps per axis");
  MOSAIC_CHECK(config.maxFocusNm > 0 && config.doseSpan > 0,
               "window extents must be positive");

  const int pixelNm = sim.optics().pixelNm;
  const auto samples =
      extractSamples(target, config.sampleSpacingNm / pixelNm);
  const exec::LatticeValues spectrum = sim.maskSpectrum(mask);

  ProcessWindowResult result;
  result.focusSteps = config.focusSteps;
  result.doseSteps = config.doseSteps;
  std::vector<ProcessCorner> conditions;
  for (int fi = 0; fi < config.focusSteps; ++fi) {
    const double focus =
        config.maxFocusNm * fi / (config.focusSteps - 1);
    for (int di = 0; di < config.doseSteps; ++di) {
      const double dose = 1.0 - config.doseSpan +
                          2.0 * config.doseSpan * di /
                              (config.doseSteps - 1);
      conditions.push_back({focus, dose});
    }
  }

  // One imaging step over the whole matrix; each point is judged inside
  // the task that imaged it and writes only its own slot.
  result.matrix.resize(conditions.size());
  sim.imageConditions(
      spectrum, conditions, 0,
      [&](std::size_t i, const RealGrid& aerialImage) {
        const BitGrid printed = sim.printBinary(aerialImage);
        FocusExposurePoint& point = result.matrix[i];
        point.focusNm = conditions[i].focusNm;
        point.dose = conditions[i].dose;
        point.epeViolations = measureEpe(printed, target, samples, pixelNm,
                                         config.epeToleranceNm)
                                  .violations;
        point.shapeViolations = analyzeShape(printed, target).violations();
        point.inSpec =
            point.epeViolations == 0 && point.shapeViolations == 0;
      });

  // DOF at nominal dose: largest in-spec focus with all smaller focuses
  // in spec too (contiguous window from 0).
  const int nominalDoseIdx = (config.doseSteps - 1) / 2;
  for (int fi = 0; fi < config.focusSteps; ++fi) {
    const auto& point = result.at(fi, nominalDoseIdx);
    if (!point.inSpec) break;
    result.dofNm = point.focusNm;
  }

  // Exposure latitude at nominal focus: contiguous in-spec dose span
  // around dose 1.0.
  int lo = nominalDoseIdx;
  int hi = nominalDoseIdx;
  if (result.at(0, nominalDoseIdx).inSpec) {
    while (lo > 0 && result.at(0, lo - 1).inSpec) --lo;
    while (hi + 1 < config.doseSteps && result.at(0, hi + 1).inSpec) ++hi;
    result.exposureLatitudePct =
        100.0 * (result.at(0, hi).dose - result.at(0, lo).dose);
  }

  int inSpecCount = 0;
  for (const auto& point : result.matrix) inSpecCount += point.inSpec;
  result.windowFraction =
      static_cast<double>(inSpecCount) /
      static_cast<double>(result.matrix.size());
  return result;
}

}  // namespace mosaic
