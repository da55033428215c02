#pragma once
/// \file reference.hpp
/// Test-only oracles: a deliberately naive direct DFT and the SOCS sums
/// written on top of it straight from the formulas (Eq. 2 and the Eq. 17
/// gradient chain), a direct cyclic convolution, and the column-form
/// cyclic Jacobi eigensolver. The
/// DFT calls no Fft2d/FftPlan code, so agreement with the engine is
/// evidence rather than a tautology. A 2-D transform costs
/// O(rows * cols * (rows + cols)): keep grids at 128^2 or below.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numbers>
#include <numeric>
#include <vector>

#include "math/backend.hpp"
#include "math/eigen.hpp"
#include "math/grid.hpp"

namespace mosaic {
namespace reference {

using Complex = std::complex<double>;

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

/// ifft(kernel .* spectrum) for a sparse kernel.
inline ComplexGrid kernelField(const ComplexGrid& spectrum,
                               const exec::SpectrumView& kernel) {
  ComplexGrid field(spectrum.rows(), spectrum.cols(), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < kernel.count; ++i) {
    const auto flat = static_cast<std::size_t>(kernel.flatIndex[i]);
    field.data()[flat] = spectrum.data()[flat] * kernel.value[i];
  }
  return dft2d(field, /*inverse=*/true);
}

/// SOCS aerial image: dose * sum_k weights[k] |ifft(kernels[k] .* S)|^2.
inline RealGrid aerial(const ComplexGrid& spectrum,
                       const exec::SpectrumView* kernels,
                       const double* weights, int count, double dose) {
  RealGrid out(spectrum.rows(), spectrum.cols(), 0.0);
  for (int k = 0; k < count; ++k) {
    const ComplexGrid field = kernelField(spectrum, kernels[k]);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out.data()[i] += weights[k] * std::norm(field.data()[i]);
    }
  }
  for (double& v : out) v *= dose;
  return out;
}

/// Spectral gradient accumulator of Eq. 17:
/// sum_k weights[k] flip(kernels[k]) .* fft(g .* conj(ifft(kernels[k] .* S)))
/// where flip moves the sample at (r, c) to ((R-r)%R, (C-c)%C).
inline ComplexGrid gradientChains(const ComplexGrid& maskSpectrum,
                                  const exec::SpectrumView* kernels,
                                  const double* weights, int count,
                                  const RealGrid& g) {
  const int rows = maskSpectrum.rows();
  const int cols = maskSpectrum.cols();
  ComplexGrid accum(rows, cols, Complex(0.0, 0.0));
  for (int k = 0; k < count; ++k) {
    ComplexGrid field = kernelField(maskSpectrum, kernels[k]);
    for (std::size_t i = 0; i < field.size(); ++i) {
      field.data()[i] = g.data()[i] * std::conj(field.data()[i]);
    }
    field = dft2d(field, /*inverse=*/false);
    for (std::size_t i = 0; i < kernels[k].count; ++i) {
      const int r = kernels[k].flatIndex[i] / cols;
      const int c = kernels[k].flatIndex[i] % cols;
      const int fr = (rows - r) % rows;
      const int fc = (cols - c) % cols;
      accum(fr, fc) += weights[k] * kernels[k].value[i] * field(fr, fc);
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

}  // namespace reference
}  // namespace mosaic
