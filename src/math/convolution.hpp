#pragma once
/// \file convolution.hpp
/// The resist diffusion blur: a cyclic Gaussian convolution computed
/// spectrally on the FFT's real-input/real-output paths. The SOCS sums and
/// the gradient chains convolve through math/backend instead.

#include "math/grid.hpp"

namespace mosaic {

/// Cyclic Gaussian blur of a real grid with standard deviation `sigma`
/// (in pixels), computed spectrally: multiply by exp(-2 pi^2 sigma^2 |f|^2)
/// using the signed frequency convention (the Nyquist bin of an even size
/// is -1/2). Runs on the real-input/real-output FFT fast path. sigma <= 0
/// returns the input unchanged. The operator is
/// self-adjoint, which the ILT gradient chain relies on.
RealGrid gaussianBlur(const RealGrid& grid, double sigmaPx);

}  // namespace mosaic
