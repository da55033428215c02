/// \file fft.cpp
/// The passes behind math/fft.hpp, each in two builds: a portable one and
/// an AVX2+FMA one compiled with function-level target attributes, not a
/// global -mavx2, so the binary still runs on older x86 and non-x86 hosts.
/// The portable build uses no FMA; the baseline target has none.

#include "math/fft.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <utility>

#include "support/failpoint.hpp"
#include "support/telemetry/trace.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define MOSAIC_FFT_AVX2 1
#include <immintrin.h>
#else
#define MOSAIC_FFT_AVX2 0
#endif

namespace mosaic {
namespace exec {

bool cpuHasAvx2() {
#if MOSAIC_FFT_AVX2
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

}  // namespace exec

FftBuild hostFftBuild() {
  static const FftBuild build =
      exec::cpuHasAvx2() ? FftBuild::kAvx2 : FftBuild::kPortable;
  return build;
}

const char* fftBuildName(FftBuild build) {
  return build == FftBuild::kAvx2 ? "avx2" : "portable";
}

namespace {

using Complex = std::complex<double>;

/// What a pass reads of a plan: the length n, the bit-reversal
/// permutation, and the stage-packed forward twiddles (the factors of the
/// stage with half-length h at [h, 2h)).
struct Tables {
  std::size_t n;
  const std::size_t* rev;
  const Complex* twiddle;
};

// ---------------------------------------------------------------------------
// The 1-D pass
// ---------------------------------------------------------------------------
//
// Two stages are fused per sweep (radix-4 over the data): intermediate
// values stay in registers instead of round-tripping through memory
// between stages, and the inverse 1/n scaling is folded into the final
// sweep. The inverse uses the conjugated twiddles. Both builds share the
// bit reversal, the opening radix-2 sweep and the scalar butterfly; these
// are force-inlined, so each build compiles them with its own target.

/// Bit reversal, then, for an odd stage count, one radix-2 sweep so the
/// rest pairs up. Returns the half-length of the first fused sweep.
[[gnu::always_inline]] inline std::size_t lineOpen(const Tables& t,
                                                   Complex* data,
                                                   double fullScale) {
  for (std::size_t i = 0; i < t.n; ++i) {
    const std::size_t j = t.rev[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  if (std::countr_zero(t.n) % 2 == 0) return 1;
  const double s = (t.n == 2) ? fullScale : 1.0;
  for (std::size_t base = 0; base < t.n; base += 2) {
    const Complex l = data[base];
    const Complex r = data[base + 1];
    data[base] = (l + r) * s;
    data[base + 1] = (l - r) * s;
  }
  return 2;
}

/// Fused stages (h, 2h) on one group: elements (a, b, c, d) = (p[0], p[h],
/// p[2h], p[3h]) combine with W1 = tw1, W2 = w2c and W3 = -i W2
/// (conjugated on inverse); every output is scaled by s.
[[gnu::always_inline]] inline void radix4(Complex* p, std::size_t h,
                                          Complex tw1, Complex w2c,
                                          bool invert, double s) {
  const Complex w1 = invert ? std::conj(tw1) : tw1;
  const Complex w2 = invert ? std::conj(w2c) : w2c;
  const Complex w3 = invert ? Complex(w2c.imag(), w2c.real())
                            : Complex(w2c.imag(), -w2c.real());
  const Complex tb = p[h] * w1;
  const Complex td = p[3 * h] * w1;
  const Complex a1 = p[0] + tb;
  const Complex b1 = p[0] - tb;
  const Complex c1 = p[2 * h] + td;
  const Complex d1 = p[2 * h] - td;
  const Complex t0 = c1 * w2;
  const Complex t1 = d1 * w3;
  p[0] = (a1 + t0) * s;
  p[2 * h] = (a1 - t0) * s;
  p[h] = (b1 + t1) * s;
  p[3 * h] = (b1 - t1) * s;
}

void linePortable(const Tables& t, Complex* data, bool invert) {
  const double fullScale = invert ? 1.0 / static_cast<double>(t.n) : 1.0;
  for (std::size_t h = lineOpen(t, data, fullScale); h < t.n; h <<= 2) {
    const std::size_t len = h << 2;
    const double s = (len >= t.n) ? fullScale : 1.0;
    for (std::size_t base = 0; base < t.n; base += len) {
      for (std::size_t j = 0; j < h; ++j) {
        radix4(data + base + j, h, t.twiddle[h + j], t.twiddle[2 * h + j],
               invert, s);
      }
    }
  }
}

#if MOSAIC_FFT_AVX2

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

/// Two complex elements per vector; a sweep with h == 1 has a single
/// butterfly per block and runs it scalar.
__attribute__((target("avx2,fma"))) void lineAvx2(const Tables& t,
                                                  Complex* data,
                                                  bool invert) {
  const double fullScale = invert ? 1.0 / static_cast<double>(t.n) : 1.0;
  const __m256d negOdd = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
  for (std::size_t h = lineOpen(t, data, fullScale); h < t.n; h <<= 2) {
    const std::size_t len = h << 2;
    const double s = (len >= t.n) ? fullScale : 1.0;
    const __m256d sv = _mm256_set1_pd(s);
    const Complex* tw1 = t.twiddle + h;
    const Complex* tw2 = t.twiddle + (h << 1);
    for (std::size_t base = 0; base < t.n; base += len) {
      if (h == 1) {
        radix4(data + base, 1, tw1[0], tw2[0], invert, s);
        continue;
      }
      double* pa = reinterpret_cast<double*>(data + base);
      double* pb = pa + 2 * h;
      double* pc = pb + 2 * h;
      double* pd = pc + 2 * h;
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

#endif  // MOSAIC_FFT_AVX2

// ---------------------------------------------------------------------------
// The column pass
// ---------------------------------------------------------------------------
//
// The 1-D algorithm over the row index, where each butterfly combines
// whole rows element-wise: every inner loop walks contiguous memory, and
// there is no per-column gather/scatter and no scratch. The pass is
// memory-bound at production sizes, so the fused stage pairs halve the
// number of sweeps over the grids. Columns are independent, so
// restricting the element loops to a prefix of each row yields exactly
// the transforms of those columns (the real paths skip the redundant
// Hermitian half this way).

/// The grid one column pass advances, the doubles per row it transforms,
/// and the optional per-row liveness.
struct Columns {
  ComplexGrid* grid;
  std::size_t width;
  std::uint8_t* live;  ///< nullptr: every row live

  [[nodiscard]] double* row(std::size_t r) const {
    return reinterpret_cast<double*>(grid->rowPtr(static_cast<int>(r)));
  }

  /// Permutes rows (and their flags) into bit-reversed order.
  void bitReverse(const Tables& t) const {
    for (std::size_t i = 0; i < t.n; ++i) {
      const std::size_t j = t.rev[i];
      if (i >= j) continue;
      if (live != nullptr) {
        std::swap(live[i], live[j]);
        if (!(live[i] | live[j])) continue;
      }
      std::swap_ranges(row(i), row(i) + width, row(j));
    }
  }

  /// Whether the butterfly over rows r0, r0 + h, ... (k of them) has work:
  /// not when all are dead, since zeros transform to zeros. Otherwise a
  /// dead row among them is zeroed (its content was ignored until now),
  /// and all of them are live from here on.
  [[nodiscard]] bool enter(std::size_t r0, std::size_t h, int k) const {
    if (live == nullptr) return true;
    std::uint8_t any = 0;
    for (int i = 0; i < k; ++i) any |= live[r0 + i * h];
    if (any == 0) return false;
    for (int i = 0; i < k; ++i) {
      const std::size_t r = r0 + i * h;
      if (live[r] != 0) continue;
      std::fill(row(r), row(r) + width, 0.0);
      live[r] = 1;
    }
    return true;
  }
};

/// The twiddles of one fused group as scalars: W1 = tw_h[j], W2 =
/// tw_2h[j] and W3 = tw_2h[j+h] = -i W2, conjugated on inverse.
struct GroupTwiddles {
  double w1r, w1i, w2r, w2i, w3r, w3i;

  GroupTwiddles(const Tables& t, std::size_t h, std::size_t j, bool invert) {
    const Complex w1 = t.twiddle[h + j];
    const double c2r = t.twiddle[2 * h + j].real();
    const double c2i = t.twiddle[2 * h + j].imag();
    w1r = w1.real();
    w1i = invert ? -w1.imag() : w1.imag();
    w2r = c2r;
    w2i = invert ? -c2i : c2i;
    w3r = c2i;
    w3i = invert ? c2r : -c2r;  // conj(-i W2) = i conj(W2) = (c2i, c2r)
  }
};

void columnsPortable(const Tables& t, const Columns& g, bool invert) {
  const std::size_t n = t.n;
  if (n == 1) return;
  g.bitReverse(t);
  const double fullScale = invert ? 1.0 / static_cast<double>(n) : 1.0;
  std::size_t h = 1;
  if (std::countr_zero(n) % 2 == 1) {
    const double s = (n == 2) ? fullScale : 1.0;
    for (std::size_t base = 0; base < n; base += 2) {
      if (!g.enter(base, 1, 2)) continue;
      double* lo = g.row(base);
      double* hi = g.row(base + 1);
      for (std::size_t c = 0; c < g.width; ++c) {
        const double l = lo[c];
        const double r = hi[c];
        lo[c] = (l + r) * s;
        hi[c] = (l - r) * s;
      }
    }
    h = 2;
  }
  for (; h < n; h <<= 2) {
    const std::size_t len = h << 2;
    const double s = (len >= n) ? fullScale : 1.0;
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < h; ++j) {
        if (!g.enter(base + j, h, 4)) continue;
        const GroupTwiddles w(t, h, j, invert);
        double* pa = g.row(base + j);
        double* pb = g.row(base + j + h);
        double* pc = g.row(base + j + 2 * h);
        double* pd = g.row(base + j + 3 * h);
        for (std::size_t c = 0; c < g.width; c += 2) {
          const double ar = pa[c], ai = pa[c + 1];
          const double br = pb[c], bi = pb[c + 1];
          const double cr = pc[c], ci = pc[c + 1];
          const double dr = pd[c], di = pd[c + 1];
          // Stage h: (a,b) and (c,d) with W1.
          const double tbr = br * w.w1r - bi * w.w1i;
          const double tbi = br * w.w1i + bi * w.w1r;
          const double tdr = dr * w.w1r - di * w.w1i;
          const double tdi = dr * w.w1i + di * w.w1r;
          const double a1r = ar + tbr, a1i = ai + tbi;
          const double b1r = ar - tbr, b1i = ai - tbi;
          const double c1r = cr + tdr, c1i = ci + tdi;
          const double d1r = cr - tdr, d1i = ci - tdi;
          // Stage 2h: (a1,c1) with W2, (b1,d1) with W3.
          const double t0r = c1r * w.w2r - c1i * w.w2i;
          const double t0i = c1r * w.w2i + c1i * w.w2r;
          const double t1r = d1r * w.w3r - d1i * w.w3i;
          const double t1i = d1r * w.w3i + d1i * w.w3r;
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

#if MOSAIC_FFT_AVX2

/// Two complex elements per vector: g.width must be a multiple of 4.
__attribute__((target("avx2,fma"))) void columnsAvx2(const Tables& t,
                                                     const Columns& g,
                                                     bool invert) {
  const std::size_t n = t.n;
  if (n == 1) return;
  g.bitReverse(t);
  const double fullScale = invert ? 1.0 / static_cast<double>(n) : 1.0;
  std::size_t h = 1;
  if (std::countr_zero(n) % 2 == 1) {
    const double s = (n == 2) ? fullScale : 1.0;
    const __m256d sv = _mm256_set1_pd(s);
    for (std::size_t base = 0; base < n; base += 2) {
      if (!g.enter(base, 1, 2)) continue;
      double* lo = g.row(base);
      double* hi = g.row(base + 1);
      for (std::size_t c = 0; c < g.width; c += 4) {
        const __m256d l = _mm256_loadu_pd(lo + c);
        const __m256d r = _mm256_loadu_pd(hi + c);
        _mm256_storeu_pd(lo + c, _mm256_mul_pd(_mm256_add_pd(l, r), sv));
        _mm256_storeu_pd(hi + c, _mm256_mul_pd(_mm256_sub_pd(l, r), sv));
      }
    }
    h = 2;
  }
  for (; h < n; h <<= 2) {
    const std::size_t len = h << 2;
    const double s = (len >= n) ? fullScale : 1.0;
    const __m256d sv = _mm256_set1_pd(s);
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t j = 0; j < h; ++j) {
        if (!g.enter(base + j, h, 4)) continue;
        const GroupTwiddles w(t, h, j, invert);
        const __m256d v1r = _mm256_set1_pd(w.w1r);
        const __m256d v1i = _mm256_set1_pd(w.w1i);
        const __m256d v2r = _mm256_set1_pd(w.w2r);
        const __m256d v2i = _mm256_set1_pd(w.w2i);
        const __m256d v3r = _mm256_set1_pd(w.w3r);
        const __m256d v3i = _mm256_set1_pd(w.w3i);
        double* pa = g.row(base + j);
        double* pb = g.row(base + j + h);
        double* pc = g.row(base + j + 2 * h);
        double* pd = g.row(base + j + 3 * h);
        for (std::size_t c = 0; c < g.width; c += 4) {
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

#endif  // MOSAIC_FFT_AVX2

/// Per-thread packed-row workspace for the real-input/real-output paths.
/// Reused across calls so the hot loop never allocates at steady state.
std::vector<Complex>& packedRowScratch() {
  thread_local std::vector<Complex> scratch;
  return scratch;
}

/// Per-thread row flags of the band inverse, reused the same way.
std::vector<std::uint8_t>& liveRowScratch() {
  thread_local std::vector<std::uint8_t> scratch;
  return scratch;
}

}  // namespace

FftPlan::FftPlan(std::size_t n, FftBuild build) : n_(n), build_(build) {
  MOSAIC_CHECK(isPowerOfTwo(n), "FFT size must be a power of two, got " << n);
  MOSAIC_CHECK(build == FftBuild::kPortable || exec::cpuHasAvx2(),
               "the AVX2 FFT build needs a CPU with AVX2 and FMA");
  const int logN = std::countr_zero(n_);
  bitrev_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    std::size_t rev = 0;
    for (int b = 0; b < logN; ++b) {
      rev = (rev << 1) | ((i >> b) & 1u);
    }
    bitrev_[i] = rev;
  }

  // Stage-packed twiddles: for half-length h the factors
  // exp(-i pi j / h), j in [0, h) are stored at twiddle_[h + j].
  twiddle_.assign(n_ == 1 ? 1 : n_, {1.0, 0.0});
  for (std::size_t h = 1; h < n_; h <<= 1) {
    const double theta = -3.14159265358979323846 / static_cast<double>(h);
    for (std::size_t j = 0; j < h; ++j) {
      const double a = theta * static_cast<double>(j);
      twiddle_[h + j] = {std::cos(a), std::sin(a)};
    }
  }
}

void FftPlan::transform(Complex* data, bool invert) const {
  const Tables t{n_, bitrev_.data(), twiddle_.data()};
#if MOSAIC_FFT_AVX2
  if (build_ == FftBuild::kAvx2) {
    lineAvx2(t, data, invert);
    return;
  }
#endif
  linePortable(t, data, invert);
}

void FftPlan::forward(Complex* data) const {
  transform(data, /*invert=*/false);
}

void FftPlan::inverse(Complex* data) const {
  transform(data, /*invert=*/true);
}

Fft2d::Fft2d(int rows, int cols, FftBuild build)
    : rows_(rows),
      cols_(cols),
      rowPlan_(static_cast<std::size_t>(cols), build),
      colPlan_(static_cast<std::size_t>(rows), build) {
  MOSAIC_CHECK(rows > 0 && cols > 0, "FFT grid must be non-empty");
}

void Fft2d::rowPass(ComplexGrid& grid, bool invert,
                    const std::uint8_t* live) const {
  for (int r = 0; r < rows_; ++r) {
    if (live != nullptr && live[r] == 0) continue;
    rowPlan_.transform(grid.rowPtr(r), invert);
  }
}

void Fft2d::colPass(ComplexGrid& grid, bool invert, std::uint8_t* live,
                    int colLimit) const {
  const Tables t{colPlan_.n_, colPlan_.bitrev_.data(),
                 colPlan_.twiddle_.data()};
#if MOSAIC_FFT_AVX2
  if (build() == FftBuild::kAvx2 && grid.cols() % 2 == 0) {
    // Whole vectors of two columns: an odd limit (the real paths' cols/2 +
    // 1, or a band's last column + 1) rounds up by one column, which stays
    // inside the even-width row. Columns are independent, so that extra
    // column changes no other; forwardRealInto then rewrites it from
    // symmetry, and the inverse real paths never read it.
    const auto width = static_cast<std::size_t>((colLimit + 1) & ~1);
    columnsAvx2(t, Columns{&grid, 2 * width, live}, invert);
    return;
  }
#endif
  columnsPortable(
      t, Columns{&grid, 2 * static_cast<std::size_t>(colLimit), live},
      invert);
}

void Fft2d::transform(ComplexGrid& grid, bool invert,
                      std::uint8_t* live) const {
  MOSAIC_CHECK(grid.rows() == rows_ && grid.cols() == cols_,
               "grid shape mismatch in pruned FFT");
  rowPass(grid, invert, live);
  colPass(grid, invert, live, cols_);
}

void Fft2d::forward(ComplexGrid& grid) const {
  MOSAIC_CHECK(grid.rows() == rows_ && grid.cols() == cols_,
               "grid shape " << grid.rows() << "x" << grid.cols()
                             << " does not match plan " << rows_ << "x"
                             << cols_);
  MOSAIC_FAILPOINT_DATA("fft.forward",
                        reinterpret_cast<double*>(grid.data()),
                        grid.size() * 2);
  MOSAIC_SPAN("fft.forward");
  rowPass(grid, /*invert=*/false, nullptr);
  colPass(grid, /*invert=*/false, nullptr, cols_);
}

void Fft2d::inverse(ComplexGrid& grid) const {
  MOSAIC_CHECK(grid.rows() == rows_ && grid.cols() == cols_,
               "grid shape mismatch in inverse FFT");
  MOSAIC_SPAN("fft.inverse");
  rowPass(grid, /*invert=*/true, nullptr);
  colPass(grid, /*invert=*/true, nullptr, cols_);
}

ComplexGrid Fft2d::forwardReal(const RealGrid& grid) const {
  ComplexGrid out(rows_, cols_);
  forwardRealInto(grid, out);
  return out;
}

void Fft2d::forwardRealInto(const RealGrid& grid, ComplexGrid& out) const {
  MOSAIC_CHECK(grid.rows() == rows_ && grid.cols() == cols_,
               "grid shape mismatch in real forward FFT");
  MOSAIC_CHECK(out.rows() == rows_ && out.cols() == cols_,
               "output shape mismatch in real forward FFT");
  if (rows_ < 2 || cols_ < 2) {
    for (std::size_t i = 0; i < grid.size(); ++i) out.data()[i] = grid.data()[i];
    forward(out);
    return;
  }
  MOSAIC_SPAN("fft.forward_real");
  const int half = cols_ / 2;
  realRowPass(grid, out, cols_);

  // Column pass only over the non-redundant half [0, cols/2]; the rest
  // follows from Hermitian symmetry X(r, c) = conj(X(-r mod R, -c mod C)).
  colPass(out, /*invert=*/false, nullptr, half + 1);
  for (int r = 0; r < rows_; ++r) {
    const int mr = (rows_ - r) % rows_;
    const Complex* src = out.rowPtr(mr);
    Complex* dst = out.rowPtr(r);
    for (int c = half + 1; c < cols_; ++c) {
      dst[c] = std::conj(src[cols_ - c]);
    }
  }
}

void Fft2d::inverseRealInto(ComplexGrid& spectrum, RealGrid& out) const {
  MOSAIC_CHECK(spectrum.rows() == rows_ && spectrum.cols() == cols_,
               "spectrum shape mismatch in real inverse FFT");
  MOSAIC_CHECK(out.rows() == rows_ && out.cols() == cols_,
               "output shape mismatch in real inverse FFT");
  if (rows_ < 2 || cols_ < 2) {
    inverse(spectrum);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.data()[i] = spectrum.data()[i].real();
    }
    return;
  }
  MOSAIC_SPAN("fft.inverse_real");
  const int half = cols_ / 2;
  colPass(spectrum, /*invert=*/true, nullptr, half + 1);
  realRowPassInverse(spectrum, half, out);
}

int Fft2d::bandColumns(int band) const {
  const int last = std::min(band, cols_ / 2);
  return std::min(cols_, (last + 2) & ~1);
}

void Fft2d::forwardRealBand(const RealGrid& grid, int band,
                            ComplexGrid& out) const {
  const int width = bandColumns(band);
  MOSAIC_CHECK(band >= 0, "negative band " << band);
  MOSAIC_CHECK(grid.rows() == rows_ && grid.cols() == cols_,
               "grid shape mismatch in band forward FFT");
  MOSAIC_CHECK(out.rows() == rows_ && out.cols() == width,
               "band spectrum is " << out.rows() << "x" << out.cols()
                                   << ", expected " << rows_ << "x"
                                   << width);
  if (rows_ < 2 || cols_ < 2) {
    ComplexGrid full = toComplex(grid);
    rowPass(full, /*invert=*/false, nullptr);
    colPass(full, /*invert=*/false, nullptr, cols_);
    for (int r = 0; r < rows_; ++r) {
      std::copy_n(full.rowPtr(r), width, out.rowPtr(r));
    }
    return;
  }
  realRowPass(grid, out, width);
  colPass(out, /*invert=*/false, nullptr, width);
}

void Fft2d::inverseRealBand(ComplexGrid& spectrum, int band,
                            RealGrid& out) const {
  const int width = bandColumns(band);
  MOSAIC_CHECK(band >= 0, "negative band " << band);
  MOSAIC_CHECK(spectrum.rows() == rows_ && spectrum.cols() == width,
               "band spectrum is " << spectrum.rows() << "x"
                                   << spectrum.cols() << ", expected "
                                   << rows_ << "x" << width);
  MOSAIC_CHECK(out.rows() == rows_ && out.cols() == cols_,
               "output shape mismatch in band inverse FFT");
  const int last = std::min(band, cols_ / 2);
  std::vector<std::uint8_t>& live = liveRowScratch();
  live.resize(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) {
    live[static_cast<std::size_t>(r)] = std::min(r, rows_ - r) <= band;
  }
  if (rows_ < 2 || cols_ < 2) {
    // Every row of the zero-padded spectrum, its upper columns from
    // Hermitian symmetry, then the complex inverse.
    ComplexGrid full(rows_, cols_);
    const int mirror = std::max(last + 1, cols_ - last);
    for (int r = 0; r < rows_; ++r) {
      const int mr = (rows_ - r) % rows_;
      if (live[static_cast<std::size_t>(r)] != 0) {
        std::copy_n(spectrum.rowPtr(r), last + 1, full.rowPtr(r));
      }
      if (live[static_cast<std::size_t>(mr)] == 0) continue;
      for (int c = mirror; c < cols_; ++c) {
        full(r, c) = std::conj(spectrum(mr, cols_ - c));
      }
    }
    rowPass(full, /*invert=*/true, nullptr);
    colPass(full, /*invert=*/true, nullptr, cols_);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.data()[i] = full.data()[i].real();
    }
    return;
  }
  // Row 0 is always in the band, and every output of a column transform
  // depends on every input, so the pass leaves every row live.
  colPass(spectrum, /*invert=*/true, live.data(), last + 1);
  realRowPassInverse(spectrum, last, out);
}

void Fft2d::realRowPass(const RealGrid& grid, ComplexGrid& out,
                        int width) const {
  // Pack two real rows a, b as z = a + i b, transform once, and split
  // using conj-symmetry: A[k] = (Z[k] + conj(Z[n-k]))/2,
  // B[k] = (Z[k] - conj(Z[n-k]))/(2i).
  std::vector<Complex>& packed = packedRowScratch();
  packed.resize(static_cast<std::size_t>(cols_));
  for (int r = 0; r < rows_; r += 2) {
    const double* a = grid.rowPtr(r);
    const double* b = grid.rowPtr(r + 1);
    for (int c = 0; c < cols_; ++c) {
      packed[static_cast<std::size_t>(c)] = {a[c], b[c]};
    }
    rowPlan_.forward(packed.data());
    Complex* ra = out.rowPtr(r);
    Complex* rb = out.rowPtr(r + 1);
    ra[0] = {packed[0].real(), 0.0};
    rb[0] = {packed[0].imag(), 0.0};
    for (int k = 1; k < width; ++k) {
      const Complex z = packed[static_cast<std::size_t>(k)];
      const Complex zc = std::conj(packed[static_cast<std::size_t>(cols_ - k)]);
      ra[k] = 0.5 * (z + zc);
      const Complex d = z - zc;  // = 2i B[k]
      rb[k] = {0.5 * d.imag(), -0.5 * d.real()};
    }
  }
}

void Fft2d::realRowPassInverse(const ComplexGrid& spectrum, int last,
                               RealGrid& out) const {
  // After the inverse column pass every row is a 1-D Hermitian spectrum
  // (Y(r, c) = conj(Y(r, C - c))) held in columns [0, last], zero beyond,
  // which lets the row pass reconstruct its upper half locally and invert
  // two real-output rows per complex transform: z = ifft(Y0 + i Y1) has
  // row0 = Re z, row1 = Im z.
  const int mirror = std::max(last + 1, cols_ - last);
  std::vector<Complex>& packed = packedRowScratch();
  packed.resize(static_cast<std::size_t>(cols_));
  for (int r = 0; r < rows_; r += 2) {
    const Complex* ya = spectrum.rowPtr(r);
    const Complex* yb = spectrum.rowPtr(r + 1);
    for (int k = 0; k <= last; ++k) {
      const Complex a = ya[k];
      const Complex b = yb[k];
      packed[static_cast<std::size_t>(k)] = {a.real() - b.imag(),
                                             a.imag() + b.real()};
    }
    std::fill(packed.begin() + last + 1, packed.begin() + mirror,
              Complex(0.0, 0.0));
    for (int k = mirror; k < cols_; ++k) {
      const Complex a = std::conj(ya[cols_ - k]);
      const Complex b = std::conj(yb[cols_ - k]);
      packed[static_cast<std::size_t>(k)] = {a.real() - b.imag(),
                                             a.imag() + b.real()};
    }
    rowPlan_.inverse(packed.data());
    double* oa = out.rowPtr(r);
    double* ob = out.rowPtr(r + 1);
    for (int c = 0; c < cols_; ++c) {
      oa[c] = packed[static_cast<std::size_t>(c)].real();
      ob[c] = packed[static_cast<std::size_t>(c)].imag();
    }
  }
}

namespace {

/// Append-only plan list: readers walk it lock-free, inserts take the
/// mutex and publish with a release store. Nodes are never freed (plans
/// live for the process lifetime, and the set of distinct shapes is tiny).
struct PlanNode {
  int rows;
  int cols;
  FftBuild build;
  Fft2d plan;
  PlanNode* next;
};

std::atomic<PlanNode*> gPlanList{nullptr};
std::mutex gPlanInsertMutex;

const Fft2d* findPlan(PlanNode* head, int rows, int cols, FftBuild build) {
  for (PlanNode* n = head; n != nullptr; n = n->next) {
    if (n->rows == rows && n->cols == cols && n->build == build) {
      return &n->plan;
    }
  }
  return nullptr;
}

}  // namespace

const Fft2d& fft2dFor(int rows, int cols, FftBuild build) {
  if (const Fft2d* plan = findPlan(gPlanList.load(std::memory_order_acquire),
                                   rows, cols, build)) {
    return *plan;
  }
  std::lock_guard<std::mutex> lock(gPlanInsertMutex);
  PlanNode* head = gPlanList.load(std::memory_order_relaxed);
  if (const Fft2d* plan = findPlan(head, rows, cols, build)) return *plan;
  auto* node =
      new PlanNode{rows, cols, build, Fft2d(rows, cols, build), head};
  gPlanList.store(node, std::memory_order_release);
  return node->plan;
}

}  // namespace mosaic
