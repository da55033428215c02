/// \file backend.cpp
/// The SOCS engine behind math/backend.hpp. Its transforms are the one
/// FFT's (math/fft): what it adds around them is specific to SOCS.
///  - Pruned inverse transforms: SOCS kernel spectra are band-limited to
///    the pupil disc, so at production sizes ~94% of the rows of
///    (kernel .* spectrum) are exactly zero. The sparse scatter flags the
///    rows it writes, and Fft2d::transformBatch skips dead rows in the row
///    pass and dead butterfly groups in the column pass. Skipping exact
///    zeros is exact — zeros transform to zeros — so this is not an
///    approximation.
///  - Batching: up to four kernel fields advance through the column pass
///    together, so every stage's twiddle/liveness bookkeeping is paid
///    once per batch instead of once per kernel.
///  - Fused epilogues: the weighted |.|^2 accumulate (aerial, with the
///    dose folded into the weights) and the g .* conj sweep (gradient)
///    run as single passes over each field; the |.|^2 accumulate has an
///    AVX2+FMA build, taken with the plan's FFT build.
///
/// Numerics: tests/test_backend.cpp checks both primitives against the
/// direct-DFT reference in tests/reference.hpp, from 1x1 grids up.

#include "math/backend.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "math/scratch.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry/trace.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define MOSAIC_SIMD_X86 1
#include <immintrin.h>
#else
#define MOSAIC_SIMD_X86 0
#endif

namespace mosaic {
namespace exec {

namespace {

constexpr int kBatch = 4;  ///< Kernel fields advanced together per sweep.

// ---------------------------------------------------------------------------
// Sparse scatter + row liveness
// ---------------------------------------------------------------------------

/// out = kernel .* spectrum on the sparse support, zero elsewhere; marks
/// live[r] for every row that received a sample.
void scatterProduct(const ComplexGrid& spectrum, const SpectrumView& spec,
                    ComplexGrid& out, std::uint8_t* live, int cols) {
  out.fill({0.0, 0.0});
  for (std::size_t i = 0; i < spec.count; ++i) {
    const auto flat = static_cast<std::size_t>(spec.flatIndex[i]);
    out.data()[flat] = spectrum.data()[flat] * spec.value[i];
    live[flat / static_cast<std::size_t>(cols)] = 1;
  }
}

// ---------------------------------------------------------------------------
// Fused epilogues
// ---------------------------------------------------------------------------

#if MOSAIC_SIMD_X86

/// out += scale * |field|^2, 4 complex elements per iteration.
__attribute__((target("avx2,fma"))) void accumNormAvx2(
    const ComplexGrid& field, double scale, RealGrid& out) {
  const double* f = reinterpret_cast<const double*>(field.data());
  double* o = out.data();
  const std::size_t n = out.size();
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d sv = _mm256_set1_pd(scale);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d a = _mm256_loadu_pd(f + 2 * i);      // f0 f1
    const __m256d b = _mm256_loadu_pd(f + 2 * i + 4);  // f2 f3
    const __m256d sa = _mm256_mul_pd(a, a);
    const __m256d sb = _mm256_mul_pd(b, b);
    // hadd: [sa0+sa1, sb0+sb1, sa2+sa3, sb2+sb3] = [|f0|²,|f2|²,|f1|²,|f3|²]
    const __m256d h = _mm256_hadd_pd(sa, sb);
    const __m256d p = _mm256_permute4x64_pd(h, 0xD8);  // [0,2,1,3] lanes
    const __m256d acc = _mm256_loadu_pd(o + i);
    _mm256_storeu_pd(o + i, _mm256_fmadd_pd(p, sv, acc));
  }
  for (std::size_t i = n4; i < n; ++i) {
    o[i] += scale * std::norm(field.data()[i]);
  }
}

#endif  // MOSAIC_SIMD_X86

void accumNorm(const ComplexGrid& field, double scale, RealGrid& out,
               bool avx2) {
#if MOSAIC_SIMD_X86
  if (avx2) {
    accumNormAvx2(field, scale, out);
    return;
  }
#else
  (void)avx2;
#endif
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] += scale * std::norm(field.data()[i]);
  }
}

/// field = gField .* conj(field), in place.
void conjMulInPlace(const RealGrid& gField, ComplexGrid& field) {
  double* f = reinterpret_cast<double*>(field.data());
  const double* g = gField.data();
  const std::size_t n = field.size();
  for (std::size_t i = 0; i < n; ++i) {
    f[2 * i] *= g[i];
    f[2 * i + 1] *= -g[i];
  }
}

/// Pooled field grids for one batch of up to kBatch kernels.
struct BatchGrids {
  std::vector<scratch::ComplexLease> leases;
  ComplexGrid* grid[kBatch] = {};

  BatchGrids(int rows, int cols, int count) {
    const int n = std::min(count, kBatch);
    leases.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      leases.emplace_back(rows, cols);
      grid[i] = &*leases.back();
    }
  }
};

/// grids[i] = ifft(kernels[i] .* spectrum) for i < count <= kBatch: sparse
/// scatter, then one pruned, batched transform.
void inverseKernelProducts(const Fft2d& fft, const ComplexGrid& spectrum,
                           const SpectrumView* kernels, int count,
                           ComplexGrid* const* grids,
                           std::vector<std::uint8_t>& live) {
  std::fill(live.begin(), live.end(), std::uint8_t{0});
  for (int i = 0; i < count; ++i) {
    scatterProduct(spectrum, kernels[i], *grids[i], live.data(), fft.cols());
  }
  fft.transformBatch(grids, count, /*invert=*/true, live.data());
}

}  // namespace

void accumulateCoherentIntensity(const Fft2d& fft, const ComplexGrid& spectrum,
                                 const SpectrumView* kernels,
                                 const double* weights, int count, double dose,
                                 RealGrid& intensity) {
  MOSAIC_SPAN("backend.aerial_simd");
  const bool avx2 = fft.build() == FftBuild::kAvx2;
  BatchGrids batch(fft.rows(), fft.cols(), count);
  std::vector<std::uint8_t> live(static_cast<std::size_t>(fft.rows()));
  for (int k0 = 0; k0 < count; k0 += kBatch) {
    const int b = std::min(kBatch, count - k0);
    inverseKernelProducts(fft, spectrum, kernels + k0, b, batch.grid, live);
    for (int i = 0; i < b; ++i) {
      accumNorm(*batch.grid[i], weights[k0 + i] * dose, intensity, avx2);
    }
  }
}

void accumulateGradientChains(const Fft2d& fft,
                              const ComplexGrid& maskSpectrum,
                              const SpectrumView* kernels,
                              const double* weights, int count,
                              const RealGrid& gField, ComplexGrid& accum) {
  MOSAIC_SPAN("backend.gradient_simd");
  const int rows = fft.rows();
  const int cols = fft.cols();
  BatchGrids batch(rows, cols, count);
  ComplexGrid* const* grids = batch.grid;
  std::vector<std::uint8_t> live(static_cast<std::size_t>(rows));
  for (int k0 = 0; k0 < count; k0 += kBatch) {
    const int b = std::min(kBatch, count - k0);
    // A = ifft(Mhat .* spec), pruned + batched like the aerial path.
    inverseKernelProducts(fft, maskSpectrum, kernels + k0, b, grids, live);
    // B = G .* conj(A), then the full (dense) forward transform.
    for (int i = 0; i < b; ++i) {
      conjMulInPlace(gField, *grids[i]);
      // The same fault-injection site as Fft2d::forward.
      MOSAIC_FAILPOINT_DATA("fft.forward",
                            reinterpret_cast<double*>(grids[i]->data()),
                            grids[i]->size() * 2);
    }
    fft.transformBatch(grids, b, /*invert=*/false, nullptr);
    // accum += w * fft(B) .* spec_flipped.
    for (int i = 0; i < b; ++i) {
      const SpectrumView& spec = kernels[k0 + i];
      const ComplexGrid& field = *grids[i];
      const std::complex<double> scale(weights[k0 + i], 0.0);
      for (std::size_t s = 0; s < spec.count; ++s) {
        const int flat = spec.flatIndex[s];
        const int r = flat / cols;
        const int c = flat % cols;
        const auto flipped = static_cast<std::size_t>(
            ((rows - r) % rows) * cols + ((cols - c) % cols));
        accum.data()[flipped] +=
            field.data()[flipped] * spec.value[s] * scale;
      }
    }
  }
}

}  // namespace exec
}  // namespace mosaic
