#pragma once
/// \file backend.hpp
/// The SOCS hot path (docs/performance.md, "The SOCS engine").
///
/// One ILT iteration spends nearly all of its time in two math-level
/// primitives: the aerial-intensity sum over the SOCS kernel set
/// (per-kernel sparse product + inverse FFT + weighted |.|^2 accumulate,
/// Eq. 2) and the gradient convolution chains (inverse FFT, element-wise
/// product, forward FFT, flipped sparse accumulate, Eq. 17). Their
/// transforms are the one FFT's (math/fft: Fft2d::transformBatch, on the
/// plan's build); this engine adds only what is specific to SOCS: the
/// sparse scatter that flags the live rows of the band-limited kernel
/// products, batches of four kernels per transform, and fused
/// weighted-|.|^2 and g .* conj epilogues. tests/reference.hpp holds the
/// direct-DFT oracle both primitives are tested against.
///
/// Thread-safety: both primitives use only per-thread scratch, so any
/// number of threads may call them concurrently.

#include <complex>
#include <string_view>

#include "math/fft.hpp"
#include "math/grid.hpp"

namespace mosaic {
namespace exec {

/// Non-owning view of a sparse spectrum: `count` nonzero lattice samples
/// of a rows x cols frequency grid, addressed by flat index r * cols + c.
/// litho's SparseSpectrum converts to this without copying.
struct SpectrumView {
  const int* flatIndex = nullptr;
  const std::complex<double>* value = nullptr;
  std::size_t count = 0;
};

/// intensity += dose * sum_k weights[k] * |ifft(kernels[k] .* spectrum)|^2.
/// `intensity` is accumulated into (callers pass a zeroed grid); the dose
/// is folded into the per-kernel weights.
void accumulateCoherentIntensity(const Fft2d& fft, const ComplexGrid& spectrum,
                                 const SpectrumView* kernels,
                                 const double* weights, int count, double dose,
                                 RealGrid& intensity);

/// accum += sum_k weights[k] * flip(kernels[k]) .*
///          fft(gField .* conj(ifft(kernels[k] .* maskSpectrum)))
///
/// The gradient convolution chain of Eq. 17, summed over a kernel set
/// into the spectral accumulator (the caller inverse-transforms `accum`
/// once per evaluation). flip(s) moves the sample at (r, c) to
/// ((R-r)%R, (C-c)%C) with the value unchanged.
void accumulateGradientChains(const Fft2d& fft,
                              const ComplexGrid& maskSpectrum,
                              const SpectrumView* kernels,
                              const double* weights, int count,
                              const RealGrid& gField, ComplexGrid& accum);

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
