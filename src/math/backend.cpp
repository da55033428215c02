/// \file backend.cpp
/// The SOCS engine behind math/backend.hpp.
///
/// What it does beyond a per-kernel loop of Fft2d transforms:
///  - Pruned inverse transforms: SOCS kernel spectra are band-limited to
///    the pupil disc, so at production sizes ~94% of the rows of
///    (kernel .* spectrum) are exactly zero. The row pass skips dead
///    rows entirely, and the column pass tracks row liveness through the
///    butterflies (a fused 4-row group whose inputs are all zero stays
///    zero) instead of streaming the whole grid every sweep. Skipping
///    exact zeros is exact — zeros transform to zeros — so this is not
///    an approximation.
///  - Batching: up to four kernel fields advance through the column pass
///    together, so every stage's twiddle/liveness bookkeeping is paid
///    once per batch instead of once per kernel.
///  - Explicit AVX2+FMA butterflies for the 1-D plan's fused stage pairs
///    and the 4-row column butterflies, compiled with function-level
///    target attributes and selected at runtime (cpuHasAvx2), with
///    portable scalar lanes as the fallback — no global -mavx2, so the
///    binary still runs on older x86 and non-x86 hosts.
///  - Fused epilogues: the weighted |.|^2 accumulate (aerial, with the
///    dose folded into the weights) and the g .* conj sweep (gradient)
///    run as single passes over each field.
///
/// Numerics: tests/test_backend.cpp checks both primitives against the
/// direct-DFT reference in tests/reference.hpp, from 1x1 grids up.

#include "math/backend.hpp"

#include <algorithm>
#include <cmath>
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
// 1-D transforms (row pass)
// ---------------------------------------------------------------------------

#if MOSAIC_SIMD_X86

/// a * b for packed complex doubles [r0,i0,r1,i1].
__attribute__((target("avx2,fma"))) inline __m256d cmul(__m256d a,
                                                        __m256d b) {
  const __m256d br = _mm256_movedup_pd(b);       // [br0,br0,br1,br1]
  const __m256d bi = _mm256_permute_pd(b, 0xF);  // [bi0,bi0,bi1,bi1]
  const __m256d asw = _mm256_permute_pd(a, 0x5);  // [i0,r0,i1,r1]
  // even: ar*br - ai*bi, odd: ai*br + ar*bi
  return _mm256_fmaddsub_pd(a, br, _mm256_mul_pd(asw, bi));
}

/// x * (wr + i wi) with scalar twiddle components, packed complex lanes.
__attribute__((target("avx2,fma"))) inline __m256d cmulScalar(__m256d x,
                                                              __m256d wr,
                                                              __m256d wi) {
  const __m256d xsw = _mm256_permute_pd(x, 0x5);
  return _mm256_fmaddsub_pd(x, wr, _mm256_mul_pd(xsw, wi));
}

/// AVX2 version of FftPlan::transform (fused stage pairs). Two complex
/// elements per vector; the h==1 sub-case falls back to the scalar
/// butterfly since there is only one j.
__attribute__((target("avx2,fma"))) void fft1dAvx2(
    const FftPlan& plan, std::complex<double>* cdata, bool invert) {
  const std::size_t n = plan.size();
  const std::vector<std::size_t>& rev = plan.bitReversal();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(cdata[i], cdata[j]);
  }
  int stages = 0;
  for (std::size_t s = 1; s < n; s <<= 1) ++stages;
  const double fullScale = invert ? 1.0 / static_cast<double>(n) : 1.0;
  std::size_t h = 1;
  if (stages % 2 == 1) {
    const double s = (n == 2) ? fullScale : 1.0;
    for (std::size_t base = 0; base < n; base += 2) {
      const std::complex<double> l = cdata[base];
      const std::complex<double> t = cdata[base + 1];
      cdata[base] = (l + t) * s;
      cdata[base + 1] = (l - t) * s;
    }
    h = 2;
  }
  const __m256d negOdd = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  for (; h < n; h <<= 2) {
    const std::size_t len = h << 2;
    const double s = (len >= n) ? fullScale : 1.0;
    const __m256d sv = _mm256_set1_pd(s);
    const std::complex<double>* tw1 = plan.stageTwiddles(h);
    const std::complex<double>* tw2 = plan.stageTwiddles(h << 1);
    for (std::size_t base = 0; base < n; base += len) {
      double* pa = reinterpret_cast<double*>(cdata + base);
      double* pb = pa + 2 * h;
      double* pc = pb + 2 * h;
      double* pd = pc + 2 * h;
      if (h == 1) {
        // Single butterfly in this block; scalar (matches plan code).
        const std::complex<double> w1 = invert ? std::conj(tw1[0]) : tw1[0];
        const std::complex<double> w2c = tw2[0];
        const std::complex<double> w2 = invert ? std::conj(w2c) : w2c;
        const std::complex<double> w3 =
            invert ? std::complex<double>(w2c.imag(), w2c.real())
                   : std::complex<double>(w2c.imag(), -w2c.real());
        std::complex<double>* qa = cdata + base;
        const std::complex<double> tb = qa[1] * w1;
        const std::complex<double> td = qa[3] * w1;
        const std::complex<double> a1 = qa[0] + tb;
        const std::complex<double> b1 = qa[0] - tb;
        const std::complex<double> c1 = qa[2] + td;
        const std::complex<double> d1 = qa[2] - td;
        const std::complex<double> t0 = c1 * w2;
        const std::complex<double> t1 = d1 * w3;
        qa[0] = (a1 + t0) * s;
        qa[2] = (a1 - t0) * s;
        qa[1] = (b1 + t1) * s;
        qa[3] = (b1 - t1) * s;
        continue;
      }
      for (std::size_t j = 0; j < h; j += 2) {
        __m256d w1 =
            _mm256_loadu_pd(reinterpret_cast<const double*>(tw1 + j));
        const __m256d w2c =
            _mm256_loadu_pd(reinterpret_cast<const double*>(tw2 + j));
        __m256d w2, w3;
        const __m256d w2sw = _mm256_permute_pd(w2c, 0x5);  // (c2i, c2r)
        if (invert) {
          w1 = _mm256_xor_pd(w1, negOdd);
          w2 = _mm256_xor_pd(w2c, negOdd);
          w3 = w2sw;  // conj(-i W2) = (c2i, c2r)
        } else {
          w2 = w2c;
          w3 = _mm256_xor_pd(w2sw, negOdd);  // (c2i, -c2r)
        }
        const std::size_t o = 2 * j;
        const __m256d a = _mm256_loadu_pd(pa + o);
        const __m256d b = _mm256_loadu_pd(pb + o);
        const __m256d c = _mm256_loadu_pd(pc + o);
        const __m256d d = _mm256_loadu_pd(pd + o);
        const __m256d tb = cmul(b, w1);
        const __m256d td = cmul(d, w1);
        const __m256d a1 = _mm256_add_pd(a, tb);
        const __m256d b1 = _mm256_sub_pd(a, tb);
        const __m256d c1 = _mm256_add_pd(c, td);
        const __m256d d1 = _mm256_sub_pd(c, td);
        const __m256d t0 = cmul(c1, w2);
        const __m256d t1 = cmul(d1, w3);
        _mm256_storeu_pd(pa + o, _mm256_mul_pd(_mm256_add_pd(a1, t0), sv));
        _mm256_storeu_pd(pc + o, _mm256_mul_pd(_mm256_sub_pd(a1, t0), sv));
        _mm256_storeu_pd(pb + o, _mm256_mul_pd(_mm256_add_pd(b1, t1), sv));
        _mm256_storeu_pd(pd + o, _mm256_mul_pd(_mm256_sub_pd(b1, t1), sv));
      }
    }
  }
}

#endif  // MOSAIC_SIMD_X86

void fft1d(const FftPlan& plan, std::complex<double>* data, bool invert,
           bool avx2) {
#if MOSAIC_SIMD_X86
  if (avx2) {
    fft1dAvx2(plan, data, invert);
    return;
  }
#else
  (void)avx2;
#endif
  if (invert) {
    plan.inverse(data);
  } else {
    plan.forward(data);
  }
}

// ---------------------------------------------------------------------------
// Liveness-aware batched column pass
// ---------------------------------------------------------------------------
//
// Mirrors Fft2d::transformCols (row-vector butterflies, fused stage
// pairs, 1/rows folded into the last sweep) with two changes: it
// advances up to kBatch grids per sweep, and it consults/propagates a
// per-row liveness vector shared by the batch — a butterfly group whose
// input rows are all zero in every grid produces all-zero outputs and is
// skipped. The liveness flags are permuted alongside the bit-reversal
// row swaps so they track physical rows.

/// Swap rows i and j (full width) in every grid of the batch.
void swapRows(ComplexGrid* const* grids, int batch, std::size_t i,
              std::size_t j) {
  for (int b = 0; b < batch; ++b) {
    std::complex<double>* a = grids[b]->rowPtr(static_cast<int>(i));
    std::complex<double>* bb = grids[b]->rowPtr(static_cast<int>(j));
    std::swap_ranges(a, a + grids[b]->cols(), bb);
  }
}

#if MOSAIC_SIMD_X86

__attribute__((target("avx2,fma"))) void colPassAvx2(
    const FftPlan& colPlan, ComplexGrid* const* grids, int batch,
    bool invert, std::uint8_t* live) {
  const std::size_t n = colPlan.size();
  if (n == 1) return;
  const std::size_t limit = static_cast<std::size_t>(grids[0]->cols()) * 2;
  const std::vector<std::size_t>& rev = colPlan.bitReversal();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) {
      if (live[i] | live[j]) swapRows(grids, batch, i, j);
      std::swap(live[i], live[j]);
    }
  }
  int stages = 0;
  for (std::size_t s = 1; s < n; s <<= 1) ++stages;
  const double fullScale = invert ? 1.0 / static_cast<double>(n) : 1.0;
  std::size_t h = 1;
  if (stages % 2 == 1) {
    const double s = (n == 2) ? fullScale : 1.0;
    const __m256d sv = _mm256_set1_pd(s);
    for (std::size_t base = 0; base < n; base += 2) {
      if (!(live[base] | live[base + 1])) continue;
      live[base] = live[base + 1] = 1;
      for (int b = 0; b < batch; ++b) {
        double* lo =
            reinterpret_cast<double*>(grids[b]->rowPtr(static_cast<int>(base)));
        double* hi = reinterpret_cast<double*>(
            grids[b]->rowPtr(static_cast<int>(base + 1)));
        for (std::size_t c = 0; c < limit; c += 4) {
          const __m256d l = _mm256_loadu_pd(lo + c);
          const __m256d t = _mm256_loadu_pd(hi + c);
          _mm256_storeu_pd(lo + c, _mm256_mul_pd(_mm256_add_pd(l, t), sv));
          _mm256_storeu_pd(hi + c, _mm256_mul_pd(_mm256_sub_pd(l, t), sv));
        }
      }
    }
    h = 2;
  }
  for (; h < n; h <<= 2) {
    const std::size_t len = h << 2;
    const double s = (len >= n) ? fullScale : 1.0;
    const __m256d sv = _mm256_set1_pd(s);
    const std::complex<double>* tw1 = colPlan.stageTwiddles(h);
    const std::complex<double>* tw2 = colPlan.stageTwiddles(h << 1);
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < h; ++j) {
        const std::size_t r0 = base + j;
        const std::size_t r1 = r0 + h;
        const std::size_t r2 = r1 + h;
        const std::size_t r3 = r2 + h;
        if (!(live[r0] | live[r1] | live[r2] | live[r3])) continue;
        live[r0] = live[r1] = live[r2] = live[r3] = 1;
        const double c2r = tw2[j].real();
        const double c2i = tw2[j].imag();
        double w1r = tw1[j].real(), w1i = tw1[j].imag();
        double w2r = c2r, w2i = c2i;
        double w3r = c2i, w3i = -c2r;
        if (invert) {
          w1i = -w1i;
          w2i = -w2i;
          w3i = c2r;
        }
        const __m256d v1r = _mm256_set1_pd(w1r), v1i = _mm256_set1_pd(w1i);
        const __m256d v2r = _mm256_set1_pd(w2r), v2i = _mm256_set1_pd(w2i);
        const __m256d v3r = _mm256_set1_pd(w3r), v3i = _mm256_set1_pd(w3i);
        for (int b = 0; b < batch; ++b) {
          double* pa = reinterpret_cast<double*>(
              grids[b]->rowPtr(static_cast<int>(r0)));
          double* pb = reinterpret_cast<double*>(
              grids[b]->rowPtr(static_cast<int>(r1)));
          double* pc = reinterpret_cast<double*>(
              grids[b]->rowPtr(static_cast<int>(r2)));
          double* pd = reinterpret_cast<double*>(
              grids[b]->rowPtr(static_cast<int>(r3)));
          for (std::size_t c = 0; c < limit; c += 4) {
            const __m256d a = _mm256_loadu_pd(pa + c);
            const __m256d bv = _mm256_loadu_pd(pb + c);
            const __m256d cv = _mm256_loadu_pd(pc + c);
            const __m256d dv = _mm256_loadu_pd(pd + c);
            const __m256d tb = cmulScalar(bv, v1r, v1i);
            const __m256d td = cmulScalar(dv, v1r, v1i);
            const __m256d a1 = _mm256_add_pd(a, tb);
            const __m256d b1 = _mm256_sub_pd(a, tb);
            const __m256d c1 = _mm256_add_pd(cv, td);
            const __m256d d1 = _mm256_sub_pd(cv, td);
            const __m256d t0 = cmulScalar(c1, v2r, v2i);
            const __m256d t1 = cmulScalar(d1, v3r, v3i);
            _mm256_storeu_pd(pa + c,
                             _mm256_mul_pd(_mm256_add_pd(a1, t0), sv));
            _mm256_storeu_pd(pc + c,
                             _mm256_mul_pd(_mm256_sub_pd(a1, t0), sv));
            _mm256_storeu_pd(pb + c,
                             _mm256_mul_pd(_mm256_add_pd(b1, t1), sv));
            _mm256_storeu_pd(pd + c,
                             _mm256_mul_pd(_mm256_sub_pd(b1, t1), sv));
          }
        }
      }
    }
  }
}

#endif  // MOSAIC_SIMD_X86

void colPassPortable(const FftPlan& colPlan, ComplexGrid* const* grids,
                     int batch, bool invert, std::uint8_t* live) {
  const std::size_t n = colPlan.size();
  if (n == 1) return;
  const std::size_t limit = static_cast<std::size_t>(grids[0]->cols()) * 2;
  const std::vector<std::size_t>& rev = colPlan.bitReversal();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) {
      if (live[i] | live[j]) swapRows(grids, batch, i, j);
      std::swap(live[i], live[j]);
    }
  }
  int stages = 0;
  for (std::size_t s = 1; s < n; s <<= 1) ++stages;
  const double fullScale = invert ? 1.0 / static_cast<double>(n) : 1.0;
  std::size_t h = 1;
  if (stages % 2 == 1) {
    const double s = (n == 2) ? fullScale : 1.0;
    for (std::size_t base = 0; base < n; base += 2) {
      if (!(live[base] | live[base + 1])) continue;
      live[base] = live[base + 1] = 1;
      for (int b = 0; b < batch; ++b) {
        double* lo =
            reinterpret_cast<double*>(grids[b]->rowPtr(static_cast<int>(base)));
        double* hi = reinterpret_cast<double*>(
            grids[b]->rowPtr(static_cast<int>(base + 1)));
        for (std::size_t c = 0; c < limit; ++c) {
          const double l = lo[c];
          const double t = hi[c];
          lo[c] = (l + t) * s;
          hi[c] = (l - t) * s;
        }
      }
    }
    h = 2;
  }
  for (; h < n; h <<= 2) {
    const std::size_t len = h << 2;
    const double s = (len >= n) ? fullScale : 1.0;
    const std::complex<double>* tw1 = colPlan.stageTwiddles(h);
    const std::complex<double>* tw2 = colPlan.stageTwiddles(h << 1);
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < h; ++j) {
        const std::size_t r0 = base + j;
        const std::size_t r1 = r0 + h;
        const std::size_t r2 = r1 + h;
        const std::size_t r3 = r2 + h;
        if (!(live[r0] | live[r1] | live[r2] | live[r3])) continue;
        live[r0] = live[r1] = live[r2] = live[r3] = 1;
        const double c2r = tw2[j].real();
        const double c2i = tw2[j].imag();
        double w1r = tw1[j].real(), w1i = tw1[j].imag();
        double w2r = c2r, w2i = c2i;
        double w3r = c2i, w3i = -c2r;
        if (invert) {
          w1i = -w1i;
          w2i = -w2i;
          w3i = c2r;
        }
        for (int b = 0; b < batch; ++b) {
          double* pa = reinterpret_cast<double*>(
              grids[b]->rowPtr(static_cast<int>(r0)));
          double* pb = reinterpret_cast<double*>(
              grids[b]->rowPtr(static_cast<int>(r1)));
          double* pc = reinterpret_cast<double*>(
              grids[b]->rowPtr(static_cast<int>(r2)));
          double* pd = reinterpret_cast<double*>(
              grids[b]->rowPtr(static_cast<int>(r3)));
          for (std::size_t c = 0; c < limit; c += 2) {
            const double ar = pa[c], ai = pa[c + 1];
            const double br = pb[c], bi = pb[c + 1];
            const double cr = pc[c], ci = pc[c + 1];
            const double dr = pd[c], di = pd[c + 1];
            const double tbr = br * w1r - bi * w1i;
            const double tbi = br * w1i + bi * w1r;
            const double tdr = dr * w1r - di * w1i;
            const double tdi = dr * w1i + di * w1r;
            const double a1r = ar + tbr, a1i = ai + tbi;
            const double b1r = ar - tbr, b1i = ai - tbi;
            const double c1r = cr + tdr, c1i = ci + tdi;
            const double d1r = cr - tdr, d1i = ci - tdi;
            const double t0r = c1r * w2r - c1i * w2i;
            const double t0i = c1r * w2i + c1i * w2r;
            const double t1r = d1r * w3r - d1i * w3i;
            const double t1i = d1r * w3i + d1i * w3r;
            pa[c] = (a1r + t0r) * s;
            pa[c + 1] = (a1i + t0i) * s;
            pc[c] = (a1r - t0r) * s;
            pc[c + 1] = (a1i - t0i) * s;
            pb[c] = (b1r + t1r) * s;
            pb[c + 1] = (b1i + t1i) * s;
            pd[c] = (b1r - t1r) * s;
            pd[c + 1] = (b1i - t1i) * s;
          }
        }
      }
    }
  }
}

void colPass(const FftPlan& colPlan, ComplexGrid* const* grids, int batch,
             bool invert, std::uint8_t* live, bool avx2) {
#if MOSAIC_SIMD_X86
  if (avx2 && grids[0]->cols() % 2 == 0) {
    colPassAvx2(colPlan, grids, batch, invert, live);
    return;
  }
#endif
  colPassPortable(colPlan, grids, batch, invert, live);
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
/// scatter, pruned row pass, liveness-aware batched column pass.
void inverseKernelProducts(const Fft2d& fft, const ComplexGrid& spectrum,
                           const SpectrumView* kernels, int count,
                           ComplexGrid* const* grids,
                           std::vector<std::uint8_t>& live, bool avx2) {
  std::fill(live.begin(), live.end(), std::uint8_t{0});
  for (int i = 0; i < count; ++i) {
    scatterProduct(spectrum, kernels[i], *grids[i], live.data(), fft.cols());
  }
  // Dead rows are exactly zero and stay zero through the row pass.
  for (int r = 0; r < fft.rows(); ++r) {
    if (!live[static_cast<std::size_t>(r)]) continue;
    for (int i = 0; i < count; ++i) {
      fft1d(fft.rowPlan(), grids[i]->rowPtr(r), /*invert=*/true, avx2);
    }
  }
  colPass(fft.colPlan(), grids, count, /*invert=*/true, live.data(), avx2);
}

}  // namespace

bool cpuHasAvx2() {
#if MOSAIC_SIMD_X86
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

void accumulateCoherentIntensity(const Fft2d& fft, const ComplexGrid& spectrum,
                                 const SpectrumView* kernels,
                                 const double* weights, int count, double dose,
                                 RealGrid& intensity) {
  MOSAIC_SPAN("backend.aerial_simd");
  const bool avx2 = cpuHasAvx2();
  BatchGrids batch(fft.rows(), fft.cols(), count);
  std::vector<std::uint8_t> live(static_cast<std::size_t>(fft.rows()));
  for (int k0 = 0; k0 < count; k0 += kBatch) {
    const int b = std::min(kBatch, count - k0);
    inverseKernelProducts(fft, spectrum, kernels + k0, b, batch.grid, live,
                          avx2);
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
  const bool avx2 = cpuHasAvx2();
  BatchGrids batch(rows, cols, count);
  ComplexGrid* const* grids = batch.grid;
  std::vector<std::uint8_t> live(static_cast<std::size_t>(rows));
  for (int k0 = 0; k0 < count; k0 += kBatch) {
    const int b = std::min(kBatch, count - k0);
    // A = ifft(Mhat .* spec), pruned + batched like the aerial path.
    inverseKernelProducts(fft, maskSpectrum, kernels + k0, b, grids, live,
                          avx2);
    // B = G .* conj(A), then the full (dense) forward transform.
    for (int i = 0; i < b; ++i) {
      conjMulInPlace(gField, *grids[i]);
      // The same fault-injection site as Fft2d::forward.
      MOSAIC_FAILPOINT_DATA("fft.forward",
                            reinterpret_cast<double*>(grids[i]->data()),
                            grids[i]->size() * 2);
    }
    for (int r = 0; r < rows; ++r) {
      for (int i = 0; i < b; ++i) {
        fft1d(fft.rowPlan(), grids[i]->rowPtr(r), /*invert=*/false, avx2);
      }
    }
    std::fill(live.begin(), live.end(), std::uint8_t{1});
    colPass(fft.colPlan(), grids, b, /*invert=*/false, live.data(), avx2);
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
