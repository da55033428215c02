#pragma once
/// \file kernels.hpp
/// SOCS kernel set: the optical system decomposed into coherent kernels
/// h_k with weights w_k (paper Eq. 1-2). Kernels are band-limited to the
/// pupil, so each is stored as its samples on the pupil lattice
/// |f| <= NA/lambda, which the clip size fixes and the pitch does not:
/// one set serves every pixel grid of its clip size.

#include <vector>

#include "math/backend.hpp"

namespace mosaic {

/// A frequency lattice site inside the pupil, in signed indices: spatial
/// frequency (col, row) * OpticsConfig::freqStep(), |row|, |col| <=
/// pupilRadius (litho/tcc.hpp). The SOCS engine reads it as is.
using PupilSample = exec::LatticePoint;

/// The decomposed optical system for one focus condition.
struct KernelSet {
  double focusNm = 0.0;
  std::vector<PupilSample> lattice;          ///< every kernel's sample sites
  std::vector<double> weights;               ///< w_k, descending
  std::vector<exec::LatticeValues> kernels;  ///< \hat h_k at the lattice
  exec::LatticeValues combined;              ///< sum_k w_k \hat h_k (Eq. 21)

  [[nodiscard]] int kernelCount() const {
    return static_cast<int>(kernels.size());
  }
};

}  // namespace mosaic
