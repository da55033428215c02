#pragma once
/// \file kernels.hpp
/// SOCS kernel set: the optical system decomposed into coherent kernels
/// h_k with weights w_k (paper Eq. 1-2). Kernels are band-limited to the
/// pupil, so their spectra are sparse on the FFT lattice -- we store only
/// the nonzero frequency samples.

#include <complex>
#include <vector>

#include "math/grid.hpp"

namespace mosaic {

/// A spectrum that is nonzero only at a small set of FFT lattice sites.
struct SparseSpectrum {
  int gridSize = 0;                          ///< full FFT grid side N
  std::vector<int> flatIndex;                ///< r * N + c of each sample
  std::vector<std::complex<double>> value;   ///< sample values

  [[nodiscard]] std::size_t sampleCount() const { return flatIndex.size(); }

  /// Value at the DC site (0,0); zero if DC is not in the support.
  [[nodiscard]] std::complex<double> dcValue() const;

  /// Spectrum of the spatially flipped kernel h(-x,-y): sample at (r,c)
  /// moves to ((N-r)%N, (N-c)%N), value unchanged.
  [[nodiscard]] SparseSpectrum flipped() const;

  /// Element-wise complex conjugate (spectrum of conj(h) is the flipped
  /// conjugate; this is just the value conjugation half).
  [[nodiscard]] SparseSpectrum conjugated() const;

  /// Densify to a full grid (mostly zeros).
  [[nodiscard]] ComplexGrid dense() const;

  /// Accumulate scale * (this .* signalSpectrum) into `accum` (N x N).
  void accumulateProduct(const ComplexGrid& signalSpectrum,
                         std::complex<double> scale, ComplexGrid& accum) const;
};

/// The decomposed optical system for one focus condition.
struct KernelSet {
  int gridSize = 0;
  double focusNm = 0.0;
  std::vector<double> weights;           ///< w_k, descending
  std::vector<SparseSpectrum> kernels;   ///< \hat h_k on the FFT lattice
  SparseSpectrum combined;               ///< sum_k w_k \hat h_k (Eq. 21)

  [[nodiscard]] int kernelCount() const {
    return static_cast<int>(kernels.size());
  }

  /// Sum of weights (after normalization this relates to total captured
  /// TCC energy).
  [[nodiscard]] double weightSum() const;
};

}  // namespace mosaic
