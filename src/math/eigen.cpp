#include "math/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

namespace mosaic {
namespace {

double offDiagonalNorm(const Matrix& a) {
  double acc = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (r != c) acc += a(r, c) * a(r, c);
    }
  }
  return std::sqrt(acc);
}

}  // namespace

SymmetricEigenResult jacobiEigenSymmetric(Matrix a, int maxSweeps) {
  MOSAIC_CHECK(a.isSquare(), "eigendecomposition needs a square matrix");
  const int n = a.rows();

  double scale = 0.0;
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      scale = std::max(scale, std::fabs(a(r, c)));
      MOSAIC_CHECK(std::fabs(a(r, c) - a(c, r)) <= 1e-9 * std::max(1.0, scale),
                   "matrix is not symmetric at (" << r << "," << c << ")");
    }
  }

  // The eigenvectors accumulate as the rows of vt = V^T, so a rotation
  // updates two contiguous rows rather than two strided columns. Each
  // element still sees the same two products and one add or subtract, in
  // the same order, as in the column form: the results are bit-identical
  // (tests/reference.hpp keeps the column form as the oracle).
  Matrix vt = Matrix::identity(n);
  const double tol = 1e-14 * std::max(1.0, scale) * n;

  for (int sweep = 0; sweep < maxSweeps; ++sweep) {
    if (offDiagonalNorm(a) <= tol) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= tol / n) continue;
        const double app = a(p, p);
        const double aqq = a(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // Classic stable rotation: t = sign(theta) / (|theta| + sqrt(1+theta^2)).
        double t;
        if (std::fabs(theta) > 1e150) {
          t = 1.0 / (2.0 * theta);
        } else {
          t = ((theta >= 0) ? 1.0 : -1.0) /
              (std::fabs(theta) + std::sqrt(1.0 + theta * theta));
        }
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;

        for (int k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        double* ap = a.row(p);
        double* aq = a.row(q);
        for (int k = 0; k < n; ++k) {
          const double apk = ap[k];
          const double aqk = aq[k];
          ap[k] = c * apk - s * aqk;
          aq[k] = s * apk + c * aqk;
        }
        double* vp = vt.row(p);
        double* vq = vt.row(q);
        for (int k = 0; k < n; ++k) {
          const double vpk = vp[k];
          const double vqk = vq[k];
          vp[k] = c * vpk - s * vqk;
          vq[k] = s * vpk + c * vqk;
        }
      }
    }
  }
  MOSAIC_CHECK(offDiagonalNorm(a) <= std::sqrt(tol) * std::max(1.0, scale) + tol * 1e3,
               "Jacobi eigensolver did not converge in " << maxSweeps
                                                         << " sweeps");

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return a(x, x) > a(y, y); });

  SymmetricEigenResult result;
  result.eigenvalues.reserve(static_cast<std::size_t>(n));
  result.eigenvectors = Matrix(n, n);
  for (int k = 0; k < n; ++k) {
    const int idx = order[static_cast<std::size_t>(k)];
    result.eigenvalues.push_back(a(idx, idx));
    std::copy_n(vt.row(idx), n, result.eigenvectors.row(k));
  }
  return result;
}

HermitianEigenResult jacobiEigenHermitian(std::vector<std::complex<double>> h,
                                          int n, int maxSweeps) {
  MOSAIC_CHECK(n > 0, "matrix dimension must be positive");
  MOSAIC_CHECK(h.size() == static_cast<std::size_t>(n) * n,
               "matrix storage size mismatch");

  auto at = [&](int r, int c) -> const std::complex<double>& {
    return h[static_cast<std::size_t>(r) * n + c];
  };
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      MOSAIC_CHECK(std::abs(at(r, c) - std::conj(at(c, r))) <= 1e-9,
                   "matrix is not Hermitian at (" << r << "," << c << ")");
    }
  }

  // Real embedding E = [[Re, -Im], [Im, Re]]; E is symmetric when H is
  // Hermitian. Each eigenvalue of H appears twice in E; the real
  // eigenvector (x; y) maps to the complex eigenvector x + i y.
  Matrix e(2 * n, 2 * n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      const std::complex<double> val = at(r, c);
      e(r, c) = val.real();
      e(r, c + n) = -val.imag();
      e(r + n, c) = val.imag();
      e(r + n, c + n) = val.real();
    }
  }

  h = {};  // not needed past the embedding; free it before the sweep
  const SymmetricEigenResult real = jacobiEigenSymmetric(std::move(e), maxSweeps);

  HermitianEigenResult result;
  result.eigenvalues.reserve(static_cast<std::size_t>(n));
  result.eigenvectors.reserve(static_cast<std::size_t>(n));

  // Walk the doubled spectrum; keep one complex vector per true eigenpair
  // by Gram-Schmidt projection against already accepted vectors of nearby
  // eigenvalues (v and i*v collapse to the same complex direction).
  const double span =
      std::max({1.0, std::fabs(real.eigenvalues.front()),
                std::fabs(real.eigenvalues.back())});
  for (std::size_t idx = 0;
       idx < real.eigenvalues.size() &&
       result.eigenvalues.size() < static_cast<std::size_t>(n);
       ++idx) {
    const double* embedded = real.eigenvectors.row(static_cast<int>(idx));
    std::vector<std::complex<double>> vec(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      vec[static_cast<std::size_t>(i)] = {embedded[i], embedded[i + n]};
    }
    // Project out previously accepted vectors within the eigenvalue cluster.
    for (std::size_t k = 0; k < result.eigenvalues.size(); ++k) {
      if (std::fabs(result.eigenvalues[k] - real.eigenvalues[idx]) >
          1e-7 * span) {
        continue;
      }
      std::complex<double> dot{0.0, 0.0};
      for (int i = 0; i < n; ++i) {
        dot += std::conj(result.eigenvectors[k][static_cast<std::size_t>(i)]) *
               vec[static_cast<std::size_t>(i)];
      }
      for (int i = 0; i < n; ++i) {
        vec[static_cast<std::size_t>(i)] -=
            dot * result.eigenvectors[k][static_cast<std::size_t>(i)];
      }
    }
    double norm = 0.0;
    for (const auto& z : vec) norm += std::norm(z);
    norm = std::sqrt(norm);
    if (norm < 1e-6) continue;  // duplicate direction (the i*v copy)
    for (auto& z : vec) z /= norm;
    result.eigenvalues.push_back(real.eigenvalues[idx]);
    result.eigenvectors.push_back(std::move(vec));
  }

  MOSAIC_CHECK(result.eigenvalues.size() == static_cast<std::size_t>(n),
               "Hermitian eigensolver recovered "
                   << result.eigenvalues.size() << " of " << n
                   << " eigenpairs");
  return result;
}

namespace {

using ComplexVec = std::vector<std::complex<double>>;

/// Modified Gram-Schmidt over the columns in `basis`. Columns that cancel
/// to (near) zero are replaced by fresh deterministic directions and the
/// pass restarts on them, so the basis always leaves with full rank.
void orthonormalize(std::vector<ComplexVec>& basis, std::uint64_t& seed) {
  auto nextUnit = [&seed](std::size_t dim) {
    ComplexVec v(dim);
    for (auto& z : v) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const double re = static_cast<double>(seed >> 11) * 0x1p-53 - 0.5;
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const double im = static_cast<double>(seed >> 11) * 0x1p-53 - 0.5;
      z = {re, im};
    }
    return v;
  };
  for (std::size_t j = 0; j < basis.size(); ++j) {
    for (int retry = 0; retry < 8; ++retry) {
      for (std::size_t p = 0; p < j; ++p) {
        std::complex<double> dot{0.0, 0.0};
        for (std::size_t i = 0; i < basis[j].size(); ++i) {
          dot += std::conj(basis[p][i]) * basis[j][i];
        }
        for (std::size_t i = 0; i < basis[j].size(); ++i) {
          basis[j][i] -= dot * basis[p][i];
        }
      }
      double norm = 0.0;
      for (const auto& z : basis[j]) norm += std::norm(z);
      norm = std::sqrt(norm);
      if (norm > 1e-12) {
        for (auto& z : basis[j]) z /= norm;
        break;
      }
      basis[j] = nextUnit(basis[j].size());
    }
  }
}

}  // namespace

HermitianEigenResult topEigenpairsHermitian(
    const std::vector<std::complex<double>>& h, int n, int k, int maxIters,
    double tol) {
  MOSAIC_CHECK(n > 0, "matrix dimension must be positive");
  MOSAIC_CHECK(h.size() == static_cast<std::size_t>(n) * n,
               "matrix storage size mismatch");
  MOSAIC_CHECK(k >= 1 && k <= n, "requested eigenpair count out of range");
  MOSAIC_CHECK(maxIters > 0 && tol > 0.0, "iteration budget must be positive");

  auto at = [&](int r, int c) -> const std::complex<double>& {
    return h[static_cast<std::size_t>(r) * n + c];
  };
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      MOSAIC_CHECK(std::abs(at(r, c) - std::conj(at(c, r))) <= 1e-9,
                   "matrix is not Hermitian at (" << r << "," << c << ")");
    }
  }

  // A buffer of extra Ritz directions above k speeds convergence: pair j
  // settles at rate (|lambda_{b+1}| / |lambda_j|)^iter, so the guard band
  // pushes the contaminating tail further down the spectrum.
  const int block = std::min(n, std::max(2 * k, k + 8));
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  std::vector<ComplexVec> basis(static_cast<std::size_t>(block));
  for (auto& column : basis) column.assign(static_cast<std::size_t>(n), {});
  orthonormalize(basis, seed);  // empty columns are seeded deterministically

  std::vector<ComplexVec> image(static_cast<std::size_t>(block));
  std::vector<double> prevRitz;
  HermitianEigenResult small;
  bool settled = false;
  for (int iter = 0; iter < maxIters && !settled; ++iter) {
    // image = H * basis, one dense row sweep per output entry.
    for (int j = 0; j < block; ++j) {
      auto& y = image[static_cast<std::size_t>(j)];
      y.assign(static_cast<std::size_t>(n), {});
      const auto& x = basis[static_cast<std::size_t>(j)];
      for (int r = 0; r < n; ++r) {
        const std::complex<double>* row = &h[static_cast<std::size_t>(r) * n];
        std::complex<double> acc{0.0, 0.0};
        for (int c = 0; c < n; ++c) acc += row[c] * x[static_cast<std::size_t>(c)];
        y[static_cast<std::size_t>(r)] = acc;
      }
    }
    // Rayleigh-Ritz on the projected block: B = basis^H * image.
    ComplexVec projected(static_cast<std::size_t>(block) * block);
    for (int p = 0; p < block; ++p) {
      for (int q = 0; q < block; ++q) {
        std::complex<double> dot{0.0, 0.0};
        for (int i = 0; i < n; ++i) {
          dot += std::conj(basis[static_cast<std::size_t>(p)]
                                [static_cast<std::size_t>(i)]) *
                 image[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)];
        }
        projected[static_cast<std::size_t>(p) * block + q] = dot;
      }
    }
    // The projection is Hermitian up to round-off; symmetrize before the
    // small dense solve so its input validation holds.
    for (int p = 0; p < block; ++p) {
      for (int q = p; q < block; ++q) {
        const std::complex<double> mean =
            0.5 * (projected[static_cast<std::size_t>(p) * block + q] +
                   std::conj(projected[static_cast<std::size_t>(q) * block + p]));
        projected[static_cast<std::size_t>(p) * block + q] = mean;
        projected[static_cast<std::size_t>(q) * block + p] = std::conj(mean);
      }
    }
    small = jacobiEigenHermitian(std::move(projected), block);

    // Rotate the power-step image into the Ritz basis for the next round.
    std::vector<ComplexVec> rotated(static_cast<std::size_t>(block));
    for (int j = 0; j < block; ++j) {
      auto& column = rotated[static_cast<std::size_t>(j)];
      column.assign(static_cast<std::size_t>(n), {});
      for (int p = 0; p < block; ++p) {
        const std::complex<double> coeff =
            small.eigenvectors[static_cast<std::size_t>(j)]
                              [static_cast<std::size_t>(p)];
        const auto& y = image[static_cast<std::size_t>(p)];
        for (int i = 0; i < n; ++i) {
          column[static_cast<std::size_t>(i)] +=
              coeff * y[static_cast<std::size_t>(i)];
        }
      }
    }
    basis = std::move(rotated);
    orthonormalize(basis, seed);

    const double scale = std::max(1.0, std::fabs(small.eigenvalues.front()));
    if (!prevRitz.empty()) {
      settled = true;
      for (int j = 0; j < k; ++j) {
        if (std::fabs(small.eigenvalues[static_cast<std::size_t>(j)] -
                      prevRitz[static_cast<std::size_t>(j)]) > tol * scale) {
          settled = false;
          break;
        }
      }
    }
    prevRitz = small.eigenvalues;
  }
  MOSAIC_CHECK(settled, "subspace iteration did not settle in "
                            << maxIters << " iterations");

  // The final basis columns are ordered by descending Ritz value already
  // (the last rotation sorted them); fix each eigenvector's global phase
  // so results are reproducible across runs and solvers.
  HermitianEigenResult result;
  result.eigenvalues.assign(prevRitz.begin(), prevRitz.begin() + k);
  result.eigenvectors.reserve(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) {
    ComplexVec vec = basis[static_cast<std::size_t>(j)];
    std::size_t pivot = 0;
    for (std::size_t i = 1; i < vec.size(); ++i) {
      if (std::norm(vec[i]) > std::norm(vec[pivot])) pivot = i;
    }
    const double mag = std::abs(vec[pivot]);
    if (mag > 0.0) {
      const std::complex<double> phase = std::conj(vec[pivot]) / mag;
      for (auto& z : vec) z *= phase;
    }
    result.eigenvectors.push_back(std::move(vec));
  }
  return result;
}

}  // namespace mosaic
