#include "eval/pvband.hpp"

#include "geometry/bitmap_ops.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

PvBandResult computePvBand(const LithoSimulator& sim, const RealGrid& mask,
                           const std::vector<ProcessCorner>& corners) {
  return computePvBand(sim, sim.maskSpectrum(mask), corners);
}

PvBandResult computePvBand(const LithoSimulator& sim,
                           const exec::LatticeValues& spectrum,
                           const std::vector<ProcessCorner>& corners) {
  MOSAIC_SPAN("eval.pvband");
  return combinePvBand(printConditions(sim, spectrum, corners),
                       sim.optics().pixelNm);
}

std::vector<BitGrid> printConditions(
    const LithoSimulator& sim, const exec::LatticeValues& spectrum,
    const std::vector<ProcessCorner>& conditions) {
  std::vector<BitGrid> prints(conditions.size());
  sim.imageConditions(spectrum, conditions, 0,
                      [&](std::size_t i, const RealGrid& aerialImage) {
                        prints[i] = sim.printBinary(aerialImage);
                      });
  return prints;
}

PvBandResult combinePvBand(std::span<const BitGrid> prints, int pixelNm) {
  MOSAIC_CHECK(!prints.empty(), "PV band needs at least one corner");
  PvBandResult result;
  result.outer = prints.front();
  result.inner = prints.front();
  for (const BitGrid& print : prints.subspan(1)) {
    result.outer = bitOr(result.outer, print);
    result.inner = bitAnd(result.inner, print);
  }
  result.band = bitSub(result.outer, result.inner);
  result.bandPixels = countSet(result.band);
  const double pixelArea =
      static_cast<double>(pixelNm) * static_cast<double>(pixelNm);
  result.bandAreaNm2 = static_cast<double>(result.bandPixels) * pixelArea;
  return result;
}

}  // namespace mosaic
