#pragma once
/// \file reference.hpp
/// Test-only oracles: a deliberately naive direct DFT and the SOCS sums
/// written on top of it straight from the formulas (Eq. 2 and the Eq. 17
/// gradient chain), a direct cyclic convolution, the column-form cyclic
/// Jacobi eigensolver, the per-source TCC loop and the column-at-a-time
/// subspace iteration. The DFT calls no Fft2d/FftPlan code, so agreement
/// with the engine is evidence rather than a tautology. A 2-D transform
/// costs O(rows * cols * (rows + cols)): keep grids at 128^2 or below.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numbers>
#include <numeric>
#include <vector>

#include <cstdint>
#include <utility>

#include "litho/pupil.hpp"
#include "litho/tcc.hpp"
#include "math/backend.hpp"
#include "math/eigen.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"

namespace mosaic {
namespace reference {

using Complex = std::complex<double>;

/// The builds of the vector passes this host can run: the portable one,
/// and the AVX2 one on an AVX2 CPU.
inline std::vector<FftBuild> runnableBuilds() {
  std::vector<FftBuild> builds{FftBuild::kPortable};
  if (exec::cpuHasAvx2()) builds.push_back(FftBuild::kAvx2);
  return builds;
}

/// Direct 1-D DFT: X[k] = sum_j x[j] exp(-2 pi i jk / n); the inverse
/// conjugates the twiddles and divides by n. Twiddles exp(-+2 pi i m / n)
/// are tabulated once per call and indexed by jk mod n.
inline std::vector<Complex> dft(const std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> twiddle(n);
  for (std::size_t m = 0; m < n; ++m) {
    const double a = sign * 2.0 * std::numbers::pi * static_cast<double>(m) /
                     static_cast<double>(n);
    twiddle[m] = {std::cos(a), std::sin(a)};
  }
  std::vector<Complex> y(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum = 0.0;
    std::size_t m = 0;  // j * k mod n
    for (std::size_t j = 0; j < n; ++j) {
      sum += x[j] * twiddle[m];
      m += k;
      if (m >= n) m -= n;
    }
    y[k] = inverse ? sum / static_cast<double>(n) : sum;
  }
  return y;
}

/// Separable direct 2-D DFT: every row, then every column.
inline ComplexGrid dft2d(ComplexGrid grid, bool inverse) {
  const int rows = grid.rows();
  const int cols = grid.cols();
  std::vector<Complex> line(static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) line[c] = grid(r, c);
    line = dft(line, inverse);
    for (int c = 0; c < cols; ++c) grid(r, c) = line[c];
  }
  line.resize(static_cast<std::size_t>(rows));
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) line[r] = grid(r, c);
    line = dft(line, inverse);
    for (int r = 0; r < rows; ++r) grid(r, c) = line[r];
  }
  return grid;
}

/// Direct O(N^4) cyclic convolution: (a (*) b)(x) = sum_t a(t) b(x - t),
/// indices wrapping modulo the grid shape (a and b share one shape).
inline ComplexGrid directCyclicConvolve(const ComplexGrid& a,
                                        const ComplexGrid& b) {
  const int rows = a.rows();
  const int cols = a.cols();
  ComplexGrid out(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      Complex acc{0.0, 0.0};
      // tr/tc are already in [0, rows/cols), so r - tr + rows stays
      // positive and the remainder is the cyclic index.
      for (int tr = 0; tr < rows; ++tr) {
        const int br = (r - tr + rows) % rows;
        for (int tc = 0; tc < cols; ++tc) {
          const int bc = (c - tc + cols) % cols;
          acc += a(tr, tc) * b(br, bc);
        }
      }
      out(r, c) = acc;
    }
  }
  return out;
}

/// Index of signed frequency s on an axis of n samples.
inline int wrapIndex(int s, int n) { return ((s % n) + n) % n; }

/// ifft(kernel .* spectrum) for a kernel sampled on `lattice`: each
/// sample's product at its site on the spectrum's grid, a site that
/// several samples share (a lattice that wraps) holding the last one's.
inline ComplexGrid kernelField(const ComplexGrid& spectrum,
                               const std::vector<exec::LatticePoint>& lattice,
                               const exec::LatticeValues& kernel) {
  const int rows = spectrum.rows();
  const int cols = spectrum.cols();
  ComplexGrid field(rows, cols, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < lattice.size(); ++i) {
    const int r = wrapIndex(lattice[i].row, rows);
    const int c = wrapIndex(lattice[i].col, cols);
    field(r, c) = spectrum(r, c) * kernel[i];
  }
  return dft2d(field, /*inverse=*/true);
}

/// SOCS aerial image: dose * sum_k weights[k] |ifft(kernels[k] .* S)|^2,
/// S the full pixel-grid spectrum.
inline RealGrid aerial(const ComplexGrid& spectrum,
                       const std::vector<exec::LatticePoint>& lattice,
                       const exec::LatticeValues* kernels,
                       const double* weights, int count, double dose) {
  RealGrid out(spectrum.rows(), spectrum.cols(), 0.0);
  for (int k = 0; k < count; ++k) {
    const ComplexGrid field = kernelField(spectrum, lattice, kernels[k]);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.data()[i] += weights[k] * std::norm(field.data()[i]);
    }
  }
  for (double& v : out) v *= dose;
  return out;
}

/// Spectral gradient accumulator of Eq. 17:
/// sum_k weights[k] flip(kernels[k]) .* fft(g .* conj(ifft(kernels[k] .* S)))
/// where flip moves the sample at (row, col) to (-row, -col).
inline ComplexGrid gradientChains(
    const ComplexGrid& maskSpectrum,
    const std::vector<exec::LatticePoint>& lattice,
    const exec::LatticeValues* kernels, const double* weights, int count,
    const RealGrid& g) {
  const int rows = maskSpectrum.rows();
  const int cols = maskSpectrum.cols();
  ComplexGrid accum(rows, cols, Complex(0.0, 0.0));
  for (int k = 0; k < count; ++k) {
    ComplexGrid field = kernelField(maskSpectrum, lattice, kernels[k]);
    for (std::size_t i = 0; i < field.size(); ++i) {
      field.data()[i] = g.data()[i] * std::conj(field.data()[i]);
    }
    field = dft2d(field, /*inverse=*/false);
    for (std::size_t i = 0; i < lattice.size(); ++i) {
      const int fr = wrapIndex(-lattice[i].row, rows);
      const int fc = wrapIndex(-lattice[i].col, cols);
      accum(fr, fc) += weights[k] * kernels[k][i] * field(fr, fc);
    }
  }
  return accum;
}

/// Column-form cyclic Jacobi, the loop the library ran before it kept its
/// eigenvectors as rows: the rotation updates columns p and q of A, then
/// rows p and q of A, then columns p and q of V. Returns the eigenvalues
/// sorted descending and eigenvectors[k][i] = V(i, order[k]). The library
/// solver must reproduce it bit for bit.
struct JacobiResult {
  std::vector<double> eigenvalues;
  std::vector<std::vector<double>> eigenvectors;
};

inline JacobiResult jacobiColumnForm(Matrix a, int maxSweeps = 64) {
  const int n = a.rows();
  double scale = 0.0;
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) scale = std::max(scale, std::fabs(a(r, c)));
  }
  auto offDiagonalNorm = [&] {
    double acc = 0.0;
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        if (r != c) acc += a(r, c) * a(r, c);
      }
    }
    return std::sqrt(acc);
  };
  Matrix v = Matrix::identity(n);
  const double tol = 1e-14 * std::max(1.0, scale) * n;
  for (int sweep = 0; sweep < maxSweeps; ++sweep) {
    if (offDiagonalNorm() <= tol) break;
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) <= tol / n) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t =
            std::fabs(theta) > 1e150
                ? 1.0 / (2.0 * theta)
                : ((theta >= 0) ? 1.0 : -1.0) /
                      (std::fabs(theta) + std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (int k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (int k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return a(x, x) > a(y, y); });
  JacobiResult result;
  for (int idx : order) {
    result.eigenvalues.push_back(a(idx, idx));
    std::vector<double> vec(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) vec[static_cast<std::size_t>(k)] = v(k, idx);
    result.eigenvectors.push_back(std::move(vec));
  }
  return result;
}

/// The per-source TCC loop buildTcc ran before it took the source in
/// chunks: one source point after another, the shifted pupil over the
/// lattice, then P(s + f_p) conj(P(s + f_q)) added to entry (p, q) for
/// every p <= q of its nonzero support; the lower triangle by Hermitian
/// symmetry at the end. buildTcc must reproduce it bit for bit.
inline std::vector<Complex> tccPerSource(
    const OpticsConfig& optics, double focusNm,
    const std::vector<PupilSample>& lattice) {
  const Pupil pupil(optics, focusNm);
  const double df = optics.freqStep();
  const double cutoff = optics.cutoffFreq();
  const double srcStep = df / optics.sourceOversample;
  const double srcInner = optics.sigmaInner * cutoff;
  const double srcOuter = optics.sigmaOuter * cutoff;
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
  const int n = static_cast<int>(lattice.size());
  std::vector<Complex> tcc(static_cast<std::size_t>(n) * n, {0.0, 0.0});
  std::vector<Complex> shifted(static_cast<std::size_t>(n));
  std::vector<int> support;
  for (const auto& [sx, sy] : source) {
    support.clear();
    for (int p = 0; p < n; ++p) {
      const PupilSample& f = lattice[static_cast<std::size_t>(p)];
      const Complex value = pupil.value(sx + f.col * df, sy + f.row * df);
      shifted[static_cast<std::size_t>(p)] = value;
      if (value != Complex{0.0, 0.0}) support.push_back(p);
    }
    for (std::size_t i = 0; i < support.size(); ++i) {
      const int p = support[i];
      const Complex pp = shifted[static_cast<std::size_t>(p)];
      Complex* row = &tcc[static_cast<std::size_t>(p) * n];
      for (std::size_t j = i; j < support.size(); ++j) {
        const int q = support[j];
        row[q] += pp * std::conj(shifted[static_cast<std::size_t>(q)]);
      }
    }
  }
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

/// The subspace iteration topEigenpairsHermitian ran before its block
/// products took vector lanes: the basis and its image as vectors of
/// columns, H X one column at a time, X^H Y one entry at a time, the Ritz
/// rotation column by column, and Gram-Schmidt one column at a time.
/// topEigenpairsHermitian must reproduce it bit for bit.
inline HermitianEigenResult topEigenpairsByColumns(
    const std::vector<Complex>& h, int n, int k, int maxIters = 600,
    double tol = 1e-11) {
  using Column = std::vector<Complex>;
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  auto orthonormalize = [&seed](std::vector<Column>& basis) {
    for (std::size_t j = 0; j < basis.size(); ++j) {
      for (int retry = 0; retry < 8; ++retry) {
        for (std::size_t p = 0; p < j; ++p) {
          Complex dot{0.0, 0.0};
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
        for (auto& z : basis[j]) {
          seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
          const double re = static_cast<double>(seed >> 11) * 0x1p-53 - 0.5;
          seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
          const double im = static_cast<double>(seed >> 11) * 0x1p-53 - 0.5;
          z = {re, im};
        }
      }
    }
  };

  const int block = std::min(n, std::max(2 * k, k + 8));
  std::vector<Column> basis(static_cast<std::size_t>(block),
                            Column(static_cast<std::size_t>(n)));
  orthonormalize(basis);
  std::vector<Column> image(static_cast<std::size_t>(block));
  std::vector<double> prevRitz;
  bool settled = false;
  for (int iter = 0; iter < maxIters && !settled; ++iter) {
    for (int j = 0; j < block; ++j) {
      auto& y = image[static_cast<std::size_t>(j)];
      y.assign(static_cast<std::size_t>(n), {});
      const auto& x = basis[static_cast<std::size_t>(j)];
      for (int r = 0; r < n; ++r) {
        const Complex* row = &h[static_cast<std::size_t>(r) * n];
        Complex acc{0.0, 0.0};
        for (int c = 0; c < n; ++c) {
          acc += row[c] * x[static_cast<std::size_t>(c)];
        }
        y[static_cast<std::size_t>(r)] = acc;
      }
    }
    std::vector<Complex> projected(static_cast<std::size_t>(block) * block);
    for (int p = 0; p < block; ++p) {
      for (int q = 0; q < block; ++q) {
        const Column& x = basis[static_cast<std::size_t>(p)];
        const Column& y = image[static_cast<std::size_t>(q)];
        Complex dot{0.0, 0.0};
        for (int i = 0; i < n; ++i) {
          dot += std::conj(x[static_cast<std::size_t>(i)]) *
                 y[static_cast<std::size_t>(i)];
        }
        projected[static_cast<std::size_t>(p) * block + q] = dot;
      }
    }
    for (int p = 0; p < block; ++p) {
      for (int q = p; q < block; ++q) {
        Complex& upper = projected[static_cast<std::size_t>(p) * block + q];
        Complex& lower = projected[static_cast<std::size_t>(q) * block + p];
        const Complex mean = 0.5 * (upper + std::conj(lower));
        upper = mean;
        lower = std::conj(mean);
      }
    }
    const HermitianEigenResult small =
        jacobiEigenHermitian(std::move(projected), block);
    std::vector<Column> rotated(static_cast<std::size_t>(block));
    for (int j = 0; j < block; ++j) {
      auto& column = rotated[static_cast<std::size_t>(j)];
      column.assign(static_cast<std::size_t>(n), {});
      for (int p = 0; p < block; ++p) {
        const Complex coeff = small.eigenvectors[static_cast<std::size_t>(j)]
                                                [static_cast<std::size_t>(p)];
        const auto& y = image[static_cast<std::size_t>(p)];
        for (int i = 0; i < n; ++i) {
          column[static_cast<std::size_t>(i)] +=
              coeff * y[static_cast<std::size_t>(i)];
        }
      }
    }
    basis = std::move(rotated);
    orthonormalize(basis);
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
  HermitianEigenResult result;
  result.eigenvalues.assign(prevRitz.begin(), prevRitz.begin() + k);
  for (int j = 0; j < k; ++j) {
    Column vec = basis[static_cast<std::size_t>(j)];
    std::size_t pivot = 0;
    for (std::size_t i = 1; i < vec.size(); ++i) {
      if (std::norm(vec[i]) > std::norm(vec[pivot])) pivot = i;
    }
    const double mag = std::abs(vec[pivot]);
    if (mag > 0.0) {
      const Complex phase = std::conj(vec[pivot]) / mag;
      for (auto& z : vec) z *= phase;
    }
    result.eigenvectors.push_back(std::move(vec));
  }
  return result;
}

}  // namespace reference
}  // namespace mosaic
