#include "litho/tcc.hpp"

#include <cmath>

#include "litho/pupil.hpp"
#include "math/eigen.hpp"
#include "support/log.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

std::vector<PupilSample> pupilLattice(const OpticsConfig& optics) {
  optics.validate();
  const int n = optics.gridSize();
  const double df = optics.freqStep();
  const double cutoff = optics.cutoffFreq();
  std::vector<PupilSample> lattice;
  // Signed index range covering the cutoff circle.
  const int maxIdx = static_cast<int>(std::floor(cutoff / df));
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

std::vector<std::complex<double>> buildTcc(
    const OpticsConfig& optics, double focusNm,
    const std::vector<PupilSample>& lattice) {
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
  std::vector<std::complex<double>> tcc(static_cast<std::size_t>(n) * n,
                                        {0.0, 0.0});
  // Stream the source: evaluate the shifted pupil P(s + f_p) for one source
  // point at a time and accumulate only over its nonzero support. A skipped
  // product would be a signed zero, and adding +-0 never changes a sum that
  // starts at +0, so every entry is the same sum, in the same source order,
  // as the dense loop over all (p, q >= p).
  std::vector<std::complex<double>> shifted(static_cast<std::size_t>(n));
  std::vector<int> support;
  support.reserve(static_cast<std::size_t>(n));
  for (const auto& [sx, sy] : source) {
    support.clear();
    for (int p = 0; p < n; ++p) {
      const PupilSample& f = lattice[static_cast<std::size_t>(p)];
      const std::complex<double> value = pupil.value(sx + f.fx, sy + f.fy);
      shifted[static_cast<std::size_t>(p)] = value;
      if (value != std::complex<double>{0.0, 0.0}) support.push_back(p);
    }
    for (std::size_t i = 0; i < support.size(); ++i) {
      const int p = support[i];
      const std::complex<double> pp = shifted[static_cast<std::size_t>(p)];
      std::complex<double>* row = &tcc[static_cast<std::size_t>(p) * n];
      for (std::size_t j = i; j < support.size(); ++j) {
        const int q = support[j];
        row[q] += pp * std::conj(shifted[static_cast<std::size_t>(q)]);
      }
    }
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
