#include "litho/tcc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "litho/pupil.hpp"
#include "math/eigen.hpp"
#include "support/log.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

int pupilRadius(const OpticsConfig& optics) {
  return static_cast<int>(std::floor(optics.cutoffFreq() / optics.freqStep()));
}

std::vector<PupilSample> pupilLattice(const OpticsConfig& optics) {
  optics.validate();
  const int n = optics.gridSize();
  const double df = optics.freqStep();
  const double cutoff = optics.cutoffFreq();
  std::vector<PupilSample> lattice;
  // Signed index range covering the cutoff circle.
  const int maxIdx = pupilRadius(optics);
  for (int si = -maxIdx; si <= maxIdx; ++si) {
    for (int sj = -maxIdx; sj <= maxIdx; ++sj) {
      const double fy = si * df;
      const double fx = sj * df;
      if (fx * fx + fy * fy > cutoff * cutoff) continue;
      PupilSample sample;
      sample.row = (si % n + n) % n;
      sample.col = (sj % n + n) % n;
      sample.fx = fx;
      sample.fy = fy;
      lattice.push_back(sample);
    }
  }
  MOSAIC_CHECK(!lattice.empty(), "pupil lattice is empty -- clip too small?");
  return lattice;
}

namespace {

using Complex = std::complex<double>;

/// Four doubles as one GCC/Clang vector, two complex entries: element-wise
/// IEEE arithmetic, the same operations as four scalars.
using Lanes = double __attribute__((vector_size(4 * sizeof(double))));

/// Sources whose shifted pupils one pass over the TCC rows takes in:
/// 64 x n complex values, 0.67 MB at the 657-sample chip window.
constexpr std::size_t kSourceChunk = 64;

/// TCC rows a pass runs together, so one load of P(s + f_q) serves four.
constexpr int kRowBlock = 4;

/// Consecutive lattice indices [begin, end) where a source's shifted pupil
/// is nonzero.
struct Run {
  int begin;
  int end;
};

/// The shifted pupils P(s + f_p) of up to kSourceChunk consecutive source
/// points, each source's nonzero support as runs, and the scratch of the
/// row passes.
struct SourceChunk {
  int n = 0;      ///< lattice size
  int count = 0;  ///< sources in the chunk
  std::vector<Complex> shifted;        ///< [s * n + p]
  std::vector<Run> runs;               ///< every source's runs, in order
  std::vector<std::size_t> firstRun;   ///< s owns [firstRun[s], firstRun[s+1])
  std::vector<std::size_t> cursor;     ///< s's first run ending after row p0
  std::vector<Complex> spare;  ///< the last block's rows past n
};

/// Evaluates the shifted pupils of `count` source points into the chunk
/// and records each one's nonzero support as maximal runs.
void fillChunk(const Pupil& pupil, const std::vector<PupilSample>& lattice,
               const std::pair<double, double>* sources, int count,
               SourceChunk& chunk) {
  const int n = chunk.n;
  chunk.count = count;
  chunk.runs.clear();
  chunk.firstRun.clear();
  for (int s = 0; s < count; ++s) {
    chunk.firstRun.push_back(chunk.runs.size());
    const auto [sx, sy] = sources[s];
    Complex* shifted = &chunk.shifted[static_cast<std::size_t>(s) * n];
    bool inRun = false;
    for (int p = 0; p < n; ++p) {
      const PupilSample& f = lattice[static_cast<std::size_t>(p)];
      const Complex value = pupil.value(sx + f.fx, sy + f.fy);
      shifted[p] = value;
      const bool nonzero = value != Complex{0.0, 0.0};
      if (nonzero && !inRun) chunk.runs.push_back({p, p});
      if (nonzero) chunk.runs.back().end = p + 1;
      inRun = nonzero;
    }
  }
  chunk.firstRun.push_back(chunk.runs.size());
}

/// rows[k][q] += pp_k * conj(shifted[q]) over q in [begin, end), two
/// entries per vector. With pp_k = (a, b) and shifted[q] = (c, d),
/// std::complex computes (a c - b (-d), a (-d) + b c), which is exactly
/// (a c + b d, b c + (-a) d): along[k] * (c, c) + across[k] * (d, d),
/// along = (a, b), across = (b, -a).
[[gnu::always_inline]] inline void accumulateRun(double* const* rows,
                                                 const double* shifted,
                                                 int begin, int end,
                                                 const Lanes* along,
                                                 const Lanes* across) {
  int q = begin;
  for (; q + 2 <= end; q += 2) {
    Lanes s;
    std::memcpy(&s, shifted + 2 * q, sizeof s);
    const Lanes re = {s[0], s[0], s[2], s[2]};
    const Lanes im = {s[1], s[1], s[3], s[3]};
    for (int k = 0; k < kRowBlock; ++k) {
      Lanes r;
      std::memcpy(&r, rows[k] + 2 * q, sizeof r);
      r += along[k] * re + across[k] * im;
      std::memcpy(rows[k] + 2 * q, &r, sizeof r);
    }
  }
  if (q < end) {
    const double c = shifted[2 * q];
    const double d = shifted[2 * q + 1];
    for (int k = 0; k < kRowBlock; ++k) {
      rows[k][2 * q] += along[k][0] * c + across[k][0] * d;
      rows[k][2 * q + 1] += along[k][1] * c + across[k][1] * d;
    }
  }
}

/// Adds the chunk's products to the upper triangle, four rows p0..p0+3 at
/// a time: the block takes source after source, each over its support
/// from p0 on, so every entry (p, q) still adds P(s + f_p) conj(P(s + f_q))
/// in source order, and the rows stay in cache through the chunk. A row
/// outside the source's support multiplies by P(s + f_p) = 0: signed
/// zeros, which leave an upper-triangle sum's bits alone (it starts at +0
/// and never becomes -0). Entries left of the diagonal take products too;
/// the Hermitian fill overwrites them.
[[gnu::always_inline]] inline void accumulateChunkBody(Complex* tcc,
                                                       SourceChunk& chunk) {
  const int n = chunk.n;
  std::copy_n(chunk.firstRun.begin(), chunk.count, chunk.cursor.begin());
  for (int p0 = 0; p0 < n; p0 += kRowBlock) {
    double* rows[kRowBlock];
    for (int k = 0; k < kRowBlock; ++k) {
      Complex* row = p0 + k < n ? tcc + static_cast<std::size_t>(p0 + k) * n
                                : chunk.spare.data();
      rows[k] = reinterpret_cast<double*>(row);
    }
    for (int s = 0; s < chunk.count; ++s) {
      const std::size_t last = chunk.firstRun[static_cast<std::size_t>(s) + 1];
      std::size_t r = chunk.cursor[static_cast<std::size_t>(s)];
      while (r < last && chunk.runs[r].end <= p0) ++r;
      chunk.cursor[static_cast<std::size_t>(s)] = r;
      if (r == last) continue;
      const Complex* source = &chunk.shifted[static_cast<std::size_t>(s) * n];
      Lanes along[kRowBlock];
      Lanes across[kRowBlock];
      bool covered = false;  // some row of the block in the support
      for (int k = 0; k < kRowBlock; ++k) {
        const Complex pp = p0 + k < n ? source[p0 + k] : Complex{0.0, 0.0};
        const double a = pp.real();
        const double b = pp.imag();
        covered |= pp != Complex{0.0, 0.0};
        const double lanes[2][4] = {{a, b, a, b}, {b, -a, b, -a}};
        std::memcpy(&along[k], lanes[0], sizeof along[k]);
        std::memcpy(&across[k], lanes[1], sizeof across[k]);
      }
      if (!covered) continue;
      const double* shifted = reinterpret_cast<const double*>(source);
      accumulateRun(rows, shifted, std::max(p0, chunk.runs[r].begin),
                    chunk.runs[r].end, along, across);
      for (++r; r < last; ++r) {
        accumulateRun(rows, shifted, chunk.runs[r].begin, chunk.runs[r].end,
                      along, across);
      }
    }
  }
}

/// accumulateChunkBody compiled for the baseline target and for AVX2
/// (without FMA, which would fuse the products into the adds).
using AccumulateChunk = void (*)(Complex*, SourceChunk&);

void accumulatePortable(Complex* tcc, SourceChunk& chunk) {
  accumulateChunkBody(tcc, chunk);
}

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define MOSAIC_TCC_AVX2 1
[[gnu::target("avx2")]] void accumulateAvx2(Complex* tcc, SourceChunk& chunk) {
  accumulateChunkBody(tcc, chunk);
}
#else
#define MOSAIC_TCC_AVX2 0
#endif

AccumulateChunk accumulateFor(FftBuild build) {
  MOSAIC_CHECK(build == FftBuild::kPortable || exec::cpuHasAvx2(),
               "the AVX2 build needs an AVX2 CPU");
#if MOSAIC_TCC_AVX2
  if (build == FftBuild::kAvx2) return accumulateAvx2;
#endif
  return accumulatePortable;
}

}  // namespace

std::vector<std::complex<double>> buildTcc(
    const OpticsConfig& optics, double focusNm,
    const std::vector<PupilSample>& lattice, FftBuild build) {
  const AccumulateChunk accumulate = accumulateFor(build);
  const Pupil pupil(optics, focusNm);
  const double df = optics.freqStep();
  const double cutoff = optics.cutoffFreq();
  const double srcStep = df / optics.sourceOversample;
  const double srcInner = optics.sigmaInner * cutoff;
  const double srcOuter = optics.sigmaOuter * cutoff;

  // Enumerate uniform annular source points on the refined lattice.
  std::vector<std::pair<double, double>> source;
  const int srcMax = static_cast<int>(std::ceil(srcOuter / srcStep));
  for (int si = -srcMax; si <= srcMax; ++si) {
    for (int sj = -srcMax; sj <= srcMax; ++sj) {
      const double sy = si * srcStep;
      const double sx = sj * srcStep;
      const double r2 = sx * sx + sy * sy;
      if (r2 < srcInner * srcInner || r2 > srcOuter * srcOuter) continue;
      source.emplace_back(sx, sy);
    }
  }
  MOSAIC_CHECK(!source.empty(), "source sampling produced no points");

  const int n = static_cast<int>(lattice.size());
  std::vector<Complex> tcc(static_cast<std::size_t>(n) * n, {0.0, 0.0});
  // Stream the source a chunk at a time and accumulate only over each
  // point's nonzero support. A skipped product would be a signed zero, and
  // adding +-0 never changes a sum that starts at +0, so every entry is the
  // same sum, in the same source order, as the dense loop over all
  // (p, q >= p) for one source after another (tests/reference.hpp keeps
  // that per-source loop as the oracle).
  SourceChunk chunk;
  chunk.n = n;
  chunk.shifted.resize(std::min(kSourceChunk, source.size()) * n);
  chunk.cursor.resize(kSourceChunk);
  chunk.spare.resize(static_cast<std::size_t>(n));
  for (std::size_t first = 0; first < source.size(); first += kSourceChunk) {
    const auto count = static_cast<int>(
        std::min(kSourceChunk, source.size() - first));
    fillChunk(pupil, lattice, &source[first], count, chunk);
    accumulate(tcc.data(), chunk);
  }
  // Fill the lower triangle by Hermitian symmetry and apply normalization.
  const double norm = 1.0 / static_cast<double>(source.size());
  for (int p = 0; p < n; ++p) {
    for (int q = p; q < n; ++q) {
      auto& upper = tcc[static_cast<std::size_t>(p) * n + q];
      upper *= norm;
      tcc[static_cast<std::size_t>(q) * n + p] = std::conj(upper);
    }
  }
  return tcc;
}

KernelSet computeKernelSet(const OpticsConfig& optics, double focusNm) {
  const auto lattice = pupilLattice(optics);
  const int n = static_cast<int>(lattice.size());
  LOG_DEBUG("TCC lattice has " << n << " pupil samples (focus " << focusNm
                               << " nm)");
  std::vector<std::complex<double>> tcc;
  {
    MOSAIC_SPAN("litho.tcc.assemble");
    tcc = buildTcc(optics, focusNm, lattice);
  }
  const int keep = std::min(optics.kernelCount, n);
  // Small lattices (every legacy 1024 nm clip) take the exact dense solve;
  // chip-scale tile windows double the frequency resolution and push the
  // lattice into the hundreds, where the full Jacobi sweep is O(n^3) and
  // takes minutes -- there the truncated subspace solve recovers just the
  // leading SOCS kernels in seconds.
  constexpr int kDirectEigenLimit = 256;
  HermitianEigenResult eig;
  {
    MOSAIC_SPAN("litho.tcc.eigen");
    eig = (n <= kDirectEigenLimit)
              ? jacobiEigenHermitian(std::move(tcc), n)
              : topEigenpairsHermitian(tcc, n, std::min(n, keep + 8));
  }

  KernelSet set;
  set.gridSize = optics.gridSize();
  set.focusNm = focusNm;
  for (int k = 0; k < keep; ++k) {
    const double w = eig.eigenvalues[static_cast<std::size_t>(k)];
    if (w <= 0.0) break;  // TCC is PSD; numerical negatives mark the tail
    SparseSpectrum spec;
    spec.gridSize = set.gridSize;
    spec.flatIndex.reserve(static_cast<std::size_t>(n));
    spec.value.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      spec.flatIndex.push_back(lattice[static_cast<std::size_t>(p)].row *
                                   set.gridSize +
                               lattice[static_cast<std::size_t>(p)].col);
      spec.value.push_back(
          eig.eigenvectors[static_cast<std::size_t>(k)]
                          [static_cast<std::size_t>(p)]);
    }
    set.weights.push_back(w);
    set.kernels.push_back(std::move(spec));
  }
  MOSAIC_CHECK(!set.kernels.empty(), "TCC decomposition yielded no kernels");

  // Normalize weights so the open-frame intensity is 1: with M == 1 the
  // field of kernel k is its DC sample, so I_open = sum_k w_k |h_k(0)|^2.
  double openFrame = 0.0;
  for (std::size_t k = 0; k < set.kernels.size(); ++k) {
    openFrame += set.weights[k] * std::norm(set.kernels[k].dcValue());
  }
  MOSAIC_CHECK(openFrame > 1e-12,
               "open-frame intensity vanished -- degenerate kernel set");
  for (auto& w : set.weights) w /= openFrame;

  // Combined kernel (Eq. 21): sum_k w_k h_k, then rescale so its own
  // open-frame field has unit magnitude, keeping gradient magnitudes on
  // the same scale as the true intensity.
  SparseSpectrum combined;
  combined.gridSize = set.gridSize;
  combined.flatIndex = set.kernels.front().flatIndex;
  combined.value.assign(combined.flatIndex.size(), {0.0, 0.0});
  for (std::size_t k = 0; k < set.kernels.size(); ++k) {
    for (std::size_t i = 0; i < combined.value.size(); ++i) {
      combined.value[i] += set.weights[k] * set.kernels[k].value[i];
    }
  }
  const double dcMag = std::abs(combined.dcValue());
  MOSAIC_CHECK(dcMag > 1e-12, "combined kernel has no DC response");
  for (auto& v : combined.value) v /= dcMag;
  set.combined = std::move(combined);

  LOG_DEBUG("kernel set ready: " << set.kernels.size() << " kernels, top "
                                 << "weight " << set.weights.front());
  return set;
}

}  // namespace mosaic
