#include "math/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>

#include "math/fft.hpp"

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

/// One rotation of a pivot row's sweep, logged until every row has taken
/// its column update.
struct Rotation {
  int q;
  double c;
  double s;
};

/// Rows that take a column update as soon as it is made (the block whose
/// own rotations come next), and rows one catch-up runs side by side.
constexpr int kRowBlock = 8;

/// Four doubles as one GCC/Clang vector: element-wise IEEE arithmetic,
/// the same operations as four scalars.
using Lanes = double __attribute__((vector_size(4 * sizeof(double))));

/// Catches rows[0..7] up on the rotations [first, last) of pivot p's
/// sweep. Entry (k, p) runs one chain through the log and entry (k, q)
/// takes its one update on the way, by the column form's expressions, so
/// each entry sees the same products and add or subtract in the same
/// order. The eight chains are independent and run as vector lanes.
[[gnu::always_inline]] inline void catchUp(double* const* rows, int p,
                                           const Rotation* first,
                                           const Rotation* last) {
  double start[kRowBlock];
  for (int j = 0; j < kRowBlock; ++j) start[j] = rows[j][p];
  Lanes x[2];
  std::memcpy(x, start, sizeof x);
  for (const Rotation* r = first; r != last; ++r) {
    const auto [q, c, s] = *r;  // locals: the row stores cannot alias them
    for (int h = 0; h < 2; ++h) {
      double* const* g = rows + 4 * h;
      const Lanes y = {g[0][q], g[1][q], g[2][q], g[3][q]};
      const Lanes yq = s * x[h] + c * y;
      x[h] = c * x[h] - s * y;
      for (int j = 0; j < 4; ++j) g[j][q] = yq[j];
    }
  }
  for (int j = 0; j < kRowBlock; ++j) rows[j][p] = x[j / 4][j % 4];
}

/// Scratch of one solve, O(n).
struct SweepScratch {
  std::vector<Rotation> log;           ///< pivot p's rotations, in order
  std::vector<std::size_t> blockDone;  ///< log length as each block ended
  std::vector<double> spare;  ///< all-zero row padding a short catch-up
};

/// catchUp over rows [begin, end), eight at a time; a short last group
/// is padded with the spare row, whose entries stay zero.
[[gnu::always_inline]] inline void catchUpRange(Matrix& a, int begin,
                                                int end, int p,
                                                const Rotation* first,
                                                const Rotation* last,
                                                double* spare) {
  if (first == last) return;
  double* rows[kRowBlock];
  for (int k0 = begin; k0 < end; k0 += kRowBlock) {
    for (int j = 0; j < kRowBlock; ++j) {
      rows[j] = k0 + j < end ? a.row(k0 + j) : spare;
    }
    catchUp(rows, p, first, last);
  }
}

/// (x, y) <- (c x - s y, s x + c y) over n contiguous entries.
[[gnu::always_inline]] inline void rotatePair(double* __restrict x,
                                              double* __restrict y, int n,
                                              double c, double s) {
  for (int k = 0; k < n; ++k) {
    const double xk = x[k];
    const double yk = y[k];
    x[k] = c * xk - s * yk;
    y[k] = s * xk + c * yk;
  }
}

/// One cyclic sweep, pivots p = 0 .. n-2. Pivot p's sweep logs its
/// rotations; row p and the next block of rows take each column update at
/// once, every other row catches up when its block starts and at the
/// sweep's end. Rows p and q of A and of V^T turn as contiguous pairs.
[[gnu::always_inline]] inline void sweepBody(Matrix& a, Matrix& vt,
                                             double skip, SweepScratch& w) {
  const int n = a.rows();
  for (int p = 0; p < n - 1; ++p) {
    w.log.clear();
    w.blockDone.clear();
    double* ap = a.row(p);
    for (int q0 = p + 1; q0 < n; q0 += kRowBlock) {
      const int q1 = std::min(q0 + kRowBlock, n);
      catchUpRange(a, q0, q1, p, w.log.data(), w.log.data() + w.log.size(),
                   w.spare.data());
      for (int q = q0; q < q1; ++q) {
        const double apq = ap[q];
        if (std::fabs(apq) <= skip) continue;
        const double app = ap[p];
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
        w.log.push_back({q, c, s});

        const auto rotateColumns = [&](double* row) {
          const double xp = row[p];
          const double xq = row[q];
          row[p] = c * xp - s * xq;
          row[q] = s * xp + c * xq;
        };
        rotateColumns(ap);
        for (int k = q0; k < q1; ++k) rotateColumns(a.row(k));
        rotatePair(ap, a.row(q), n, c, s);
        rotatePair(vt.row(p), vt.row(q), n, c, s);
      }
      w.blockDone.push_back(w.log.size());
    }
    const Rotation* end = w.log.data() + w.log.size();
    catchUpRange(a, 0, p, p, w.log.data(), end, w.spare.data());
    for (std::size_t b = 0; b < w.blockDone.size(); ++b) {
      const int q0 = p + 1 + static_cast<int>(b) * kRowBlock;
      catchUpRange(a, q0, std::min(q0 + kRowBlock, n), p,
                   w.log.data() + w.blockDone[b], end, w.spare.data());
    }
  }
}

/// sweepBody compiled for the baseline target and for AVX2 (without FMA,
/// which would fuse the products into the adds), picked once per solve by
/// exec::cpuHasAvx2().
using Sweep = void (*)(Matrix&, Matrix&, double, SweepScratch&);

void sweepPortable(Matrix& a, Matrix& vt, double skip, SweepScratch& w) {
  sweepBody(a, vt, skip, w);
}

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define MOSAIC_EIGEN_AVX2 1
[[gnu::target("avx2")]] void sweepAvx2(Matrix& a, Matrix& vt, double skip,
                                       SweepScratch& w) {
  sweepBody(a, vt, skip, w);
}
#else
#define MOSAIC_EIGEN_AVX2 0
#endif

Sweep hostSweep() {
#if MOSAIC_EIGEN_AVX2
  if (exec::cpuHasAvx2()) return sweepAvx2;
#endif
  return sweepPortable;
}

}  // namespace

const char* jacobiSweepKernel() {
  return hostSweep() == sweepPortable ? "portable" : "avx2";
}

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
  // updates two contiguous rows rather than two strided columns, and the
  // column update of A is deferred (sweepBody): a row other than p and q
  // is read by nothing but its own column updates until its rotation, if
  // any, comes. Each element still sees the same products and add or
  // subtract in the same order as in the column form: the results are
  // bit-identical (tests/reference.hpp keeps the column form as the
  // oracle).
  Matrix vt = Matrix::identity(n);
  const double tol = 1e-14 * std::max(1.0, scale) * n;
  const Sweep sweep = hostSweep();
  SweepScratch scratch;
  scratch.log.reserve(static_cast<std::size_t>(n));
  scratch.blockDone.reserve(static_cast<std::size_t>(n / kRowBlock + 1));
  scratch.spare.assign(static_cast<std::size_t>(n), 0.0);
  for (int s = 0; s < maxSweeps; ++s) {
    if (offDiagonalNorm(a) <= tol) break;
    sweep(a, vt, tol / n, scratch);
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
