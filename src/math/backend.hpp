#pragma once
/// \file backend.hpp
/// The SOCS hot path (docs/performance.md, "The SOCS engine").
///
/// One ILT iteration spends most of its transform time in two primitives:
/// the aerial image, the SOCS sum of Eq. 2, and the gradient convolution
/// chains of Eq. 17. Both run on a coarse grid, not on the pixel grid.
/// Every kernel field h_k (*) M is band-limited to the kernels' lattice,
/// |row|, |col| <= R (R = 7 for a 1024-nm clip and 14 for the 2048-nm
/// window, at any pitch), so its intensity is band-limited to +-2R and the
/// gradient's product g_c .* conj(h_k (*) M) to +-3R. On an N x N grid with
/// N > 4R no frequency either primitive reads aliases, so every term is
/// exact there. N is the smallest power of two above 4R; a pixel axis no
/// longer than that is its own coarse axis, which is the plain cyclic
/// model through the same code. The pixel grid is crossed only by the
/// band-pruned real transforms of math/fft: the image's +-2R band out,
/// dF/dI's +-2R band in and the gradient's +-R band out. tests/reference.hpp
/// holds the direct-DFT, pixel-grid oracle both primitives are tested
/// against.
///
/// Thread-safety: both primitives use only per-thread scratch, so any
/// number of threads may call them concurrently.

#include <complex>
#include <string_view>
#include <vector>

#include "math/fft.hpp"
#include "math/grid.hpp"

namespace mosaic {
namespace exec {

/// A sample site of the kernels' frequency lattice, in signed indices:
/// frequency (col, row) / clip size. The clip size fixes the lattice and
/// the pitch does not, so one lattice serves every pixel grid; on a grid
/// of n samples per axis the site sits at (row mod n, col mod n).
struct LatticePoint {
  int row = 0;
  int col = 0;

  bool operator==(const LatticePoint&) const = default;
};

/// One complex value per lattice sample, in lattice order: a kernel's
/// spectrum, or a mask's spectrum read at the kernels' lattice.
using LatticeValues = std::vector<std::complex<double>>;

/// intensity = dose * sum_k weights[k] * |ifft(kernels[k] .* spectrum)|^2
/// on the pixel grid of `fft` (Eq. 2). `spectrum` and each kernels[k]
/// hold one value per `lattice` sample; a product at a site that several
/// samples share (a lattice that wraps on a small grid) is the last one's.
/// `intensity` (fft's shape) is overwritten.
void socsImage(const Fft2d& fft, const std::vector<LatticePoint>& lattice,
               const LatticeValues& spectrum, const LatticeValues* kernels,
               const double* weights, int count, double dose,
               RealGrid& intensity);

/// grad = 2 Re ifft(sum_k weights[k] flip(kernels[k]) .*
///                  fft(gField .* conj(ifft(kernels[k] .* maskSpectrum))))
///
/// The mask gradient of Eq. 17 for a kernel set: the convolution chains
/// summed in the spectrum, then one real inverse. flip(s) moves the sample
/// at (row, col) to (-row, -col) with the value unchanged. The lattice
/// vectors are as for socsImage; `grad` (fft's shape) is overwritten.
void socsGradient(const Fft2d& fft, const std::vector<LatticePoint>& lattice,
                  const LatticeValues& maskSpectrum,
                  const LatticeValues* kernels, const double* weights,
                  int count, const RealGrid& gField, RealGrid& grad);

/// Name handle on the engine for callers that report it (bench/e2e prints
/// `currentBackend().name()`). There is one engine, so there is nothing
/// to select: findBackend knows "auto" and "cpu_simd", and
/// setCurrentBackend is a no-op.
class Backend {
 public:
  [[nodiscard]] const char* name() const { return "cpu_simd"; }
};

inline constexpr Backend kEngine{};

inline const Backend* findBackend(std::string_view name) {
  return name == "auto" || name == "cpu_simd" ? &kEngine : nullptr;
}
inline const Backend& currentBackend() { return kEngine; }
inline void setCurrentBackend(const Backend&) {}

}  // namespace exec
}  // namespace mosaic
