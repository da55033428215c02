#include "litho/kernels.hpp"

#include "support/error.hpp"

namespace mosaic {

std::complex<double> SparseSpectrum::dcValue() const {
  for (std::size_t i = 0; i < flatIndex.size(); ++i) {
    if (flatIndex[i] == 0) return value[i];
  }
  return {0.0, 0.0};
}

SparseSpectrum SparseSpectrum::flipped() const {
  SparseSpectrum out;
  out.gridSize = gridSize;
  out.flatIndex.reserve(flatIndex.size());
  out.value = value;
  const int n = gridSize;
  for (int flat : flatIndex) {
    const int r = flat / n;
    const int c = flat % n;
    out.flatIndex.push_back(((n - r) % n) * n + ((n - c) % n));
  }
  return out;
}

SparseSpectrum SparseSpectrum::conjugated() const {
  SparseSpectrum out = *this;
  for (auto& v : out.value) v = std::conj(v);
  return out;
}

ComplexGrid SparseSpectrum::dense() const {
  MOSAIC_CHECK(gridSize > 0, "sparse spectrum has no grid size");
  ComplexGrid out(gridSize, gridSize);
  for (std::size_t i = 0; i < flatIndex.size(); ++i) {
    out.data()[static_cast<std::size_t>(flatIndex[i])] = value[i];
  }
  return out;
}

void SparseSpectrum::accumulateProduct(const ComplexGrid& signalSpectrum,
                                       std::complex<double> scale,
                                       ComplexGrid& accum) const {
  MOSAIC_CHECK(signalSpectrum.rows() == gridSize &&
                   accum.rows() == gridSize,
               "grid mismatch in accumulateProduct");
  for (std::size_t i = 0; i < flatIndex.size(); ++i) {
    const auto flat = static_cast<std::size_t>(flatIndex[i]);
    accum.data()[flat] += signalSpectrum.data()[flat] * value[i] * scale;
  }
}

double KernelSet::weightSum() const {
  double acc = 0.0;
  for (double w : weights) acc += w;
  return acc;
}

}  // namespace mosaic
