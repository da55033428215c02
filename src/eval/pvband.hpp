#pragma once
/// \file pvband.hpp
/// Process variability band (paper Fig. 4): the area between the outermost
/// and innermost printed contour over all process corners, computed with
/// boolean raster operations.

#include <span>
#include <vector>

#include "litho/simulator.hpp"
#include "math/grid.hpp"

namespace mosaic {

struct PvBandResult {
  BitGrid outer;        ///< union of all corner prints
  BitGrid inner;        ///< intersection of all corner prints
  BitGrid band;         ///< outer AND NOT inner
  long long bandPixels = 0;
  double bandAreaNm2 = 0.0;
};

/// Print the mask at every corner and assemble the PV band. The mask
/// spectrum is computed once and shared across corners.
PvBandResult computePvBand(const LithoSimulator& sim, const RealGrid& mask,
                           const std::vector<ProcessCorner>& corners);

/// Same, starting from a precomputed mask spectrum — callers that already
/// paid the forward FFT must not pay it again per corner set.
PvBandResult computePvBand(const LithoSimulator& sim,
                           const ComplexGrid& spectrum,
                           const std::vector<ProcessCorner>& corners);

/// Binary print (Eq. 3, full kernel set) of a mask spectrum at every
/// condition, from one imaging step (LithoSimulator::imageConditions):
/// each distinct condition's aerial image becomes its print inside the
/// task that summed it. prints[i] belongs to conditions[i].
std::vector<BitGrid> printConditions(
    const LithoSimulator& sim, const ComplexGrid& spectrum,
    const std::vector<ProcessCorner>& conditions);

/// The PV band of corner prints, combined in order. Throws
/// InvalidArgument when `prints` is empty.
PvBandResult combinePvBand(std::span<const BitGrid> prints, int pixelNm);

}  // namespace mosaic
