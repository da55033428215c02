#pragma once
/// \file eigen.hpp
/// Dense symmetric / Hermitian eigensolvers (cyclic Jacobi). Used to
/// decompose the Hopkins TCC operator into SOCS kernels (paper Eq. 1-2):
/// the kernels h_k are the top eigenvectors and the weights w_k the
/// eigenvalues.

#include <complex>
#include <vector>

#include "support/error.hpp"

namespace mosaic {

/// Dense row-major real matrix, just enough surface for the eigensolvers.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double init = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, init) {
    MOSAIC_CHECK(rows > 0 && cols > 0, "matrix dimensions must be positive");
  }

  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }

  double& operator()(int r, int c) {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double* row(int r) { return &data_[static_cast<std::size_t>(r) * cols_]; }
  const double* row(int r) const {
    return &data_[static_cast<std::size_t>(r) * cols_];
  }

  [[nodiscard]] bool isSquare() const { return rows_ == cols_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// Result of a symmetric eigendecomposition A = V diag(w) V^T with
/// eigenvalues sorted in descending order; the eigenvectors are the rows
/// of one contiguous matrix, V^T.
struct SymmetricEigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;  ///< row k is the eigenvector of eigenvalues[k]
};

/// Cyclic Jacobi eigensolver for a real symmetric matrix.
/// \param a symmetric square matrix (symmetry is validated to tolerance);
///        taken by value because the sweep rotates it in place.
/// \param maxSweeps maximum full sweeps before giving up (throws if the
///        off-diagonal norm has not converged by then).
SymmetricEigenResult jacobiEigenSymmetric(Matrix a, int maxSweeps = 64);

/// The build of the Jacobi sweep jacobiEigenSymmetric runs on this CPU:
/// "avx2" when exec::cpuHasAvx2(), else "portable". Both are compiled from
/// one source without FMA and give the same bits.
const char* jacobiSweepKernel();

/// Result of a Hermitian eigendecomposition H = sum_k w_k v_k v_k^H with
/// real eigenvalues sorted descending and orthonormal complex eigenvectors.
struct HermitianEigenResult {
  std::vector<double> eigenvalues;
  std::vector<std::vector<std::complex<double>>> eigenvectors;  ///< [k][i]
};

/// Hermitian eigensolver via the real 2n x 2n embedding
/// [[Re(H), -Im(H)], [Im(H), Re(H)]]. Each complex eigenpair appears twice
/// in the embedding; the implementation deduplicates by complex
/// Gram-Schmidt within eigenvalue clusters.
/// \param h row-major n x n Hermitian matrix; taken by value and released
///        once the embedding is built, so a caller that moves it in does
///        not hold both through the sweep.
HermitianEigenResult jacobiEigenHermitian(std::vector<std::complex<double>> h,
                                          int n, int maxSweeps = 64);

/// Top-k eigenpairs of a Hermitian matrix via blocked subspace iteration
/// with Rayleigh-Ritz extraction. Converges to the k algebraically largest
/// eigenpairs (the dominant ones for the PSD TCC operator) without paying
/// the O(n^3)-per-sweep cost of the full Jacobi solve -- the difference
/// between seconds and many minutes for chip-scale tile windows whose
/// pupil lattices run to hundreds of samples.
///
/// The iteration block is sized internally above k, start vectors come
/// from a fixed-seed generator, and each returned eigenvector is rotated
/// so its largest-magnitude component is real positive, so results are
/// deterministic run to run.
/// \param h row-major n x n Hermitian matrix.
/// \param k number of leading eigenpairs to return (1 <= k <= n).
/// \param maxIters iteration cap (throws if Ritz values have not settled).
/// \param tol relative Ritz-value settling tolerance.
HermitianEigenResult topEigenpairsHermitian(
    const std::vector<std::complex<double>>& h, int n, int k,
    int maxIters = 600, double tol = 1e-11);

}  // namespace mosaic
