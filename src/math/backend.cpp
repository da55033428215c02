/// \file backend.cpp
/// The SOCS engine behind math/backend.hpp: the image and the gradient on
/// the coarse grid. A kernel product is the element-wise product of two
/// lattice vectors, the kernel's and the mask spectrum's, placed at each
/// sample's coarse site. Its transforms are the one FFT's (math/fft): per
/// kernel, a row-pruned inverse of that product on the coarse grid (rows
/// without a lattice sample are skipped, exactly), and at the pixel
/// boundary the band-pruned real transforms.
///
/// Sampling. A kernel product c(f) = S(f) h(f), |f| <= R, has the pixel
/// field a(x) = n^-2 sum_f c(f) e^{2 pi i f.x/n} and the coarse field
/// b(y) = N^-2 sum_f c(f) e^{2 pi i f.y/N}: the same trigonometric
/// polynomial, a(y n/N) = (N/n)^2 b(y). Hence
///  - image: sum_k w_k |b_k|^2 samples I (n/N)^4-scaled; its spectrum's
///    +-2R band times (N/n)^2 is I's pixel spectrum, and nothing aliases
///    since N > 4R;
///  - gradient: with g_c the +-2R band of dF/dI resampled onto the coarse
///    grid ((N/n)^2 times the coarse inverse of its band), the coarse
///    spectrum of g_c .* conj(b_k) equals the pixel spectrum of
///    dF/dI .* conj(a_k) on +-R, which is all the flipped kernel reads
///    (the product's band is +-3R, and 3R + R < N).
/// Each pixel axis runs the coarse axis min(n, N); where that is n, the
/// band covers the axis and the step is the pixel grid's cyclic model.
///
/// Numerics: tests/test_backend.cpp checks both primitives against the
/// direct-DFT reference in tests/reference.hpp, from 1x1 grids up.

#include "math/backend.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "support/failpoint.hpp"

namespace mosaic {
namespace exec {

namespace {

using Complex = std::complex<double>;

/// Signed frequency of index i on an axis of n samples, in (-n/2, n/2].
int signedIndex(int i, int n) { return i <= n / 2 ? i : i - n; }

/// Index of signed frequency s on an axis of n samples.
int wrapIndex(int s, int n) { return ((s % n) + n) % n; }

/// One call's coarse grid: the lattice radius R, an axis of min(n, N)
/// samples per pixel axis (N the smallest power of two above 4R), and
/// every lattice sample's flat index on it, plain and flipped.
struct CoarseGrid {
  int pixelRows;
  int pixelCols;
  int radius = 0;
  int rows = 1;
  int cols = 1;
  std::vector<int> index;    ///< site of lattice sample s
  std::vector<int> flipped;  ///< site of its flip (-row, -col)
  std::vector<std::uint8_t> latticeRows;  ///< rows holding a sample

  CoarseGrid(const Fft2d& fft, const std::vector<LatticePoint>& lattice)
      : pixelRows(fft.rows()), pixelCols(fft.cols()) {
    for (const LatticePoint& p : lattice) {
      radius = std::max({radius, std::abs(p.row), std::abs(p.col)});
    }
    int n = 1;
    while (n <= 4 * radius) n <<= 1;
    rows = std::min(pixelRows, n);
    cols = std::min(pixelCols, n);
    index.reserve(lattice.size());
    flipped.reserve(lattice.size());
    for (const LatticePoint& p : lattice) {
      index.push_back(wrapIndex(p.row, rows) * cols + wrapIndex(p.col, cols));
      flipped.push_back(wrapIndex(-p.row, rows) * cols +
                        wrapIndex(-p.col, cols));
    }
    latticeRows.assign(static_cast<std::size_t>(rows), 0);
    for (const LatticePoint& p : lattice) {
      latticeRows[static_cast<std::size_t>(wrapIndex(p.row, rows))] = 1;
    }
  }

  /// (coarse samples) / (pixel samples): the factor between a coarse and a
  /// pixel spectrum of one band-limited function.
  [[nodiscard]] double spectrumScale() const {
    return (static_cast<double>(rows) * cols) /
           (static_cast<double>(pixelRows) * pixelCols);
  }

  /// Calls f(coarseRow, pixelRow) for every coarse row in the signed band
  /// |row| <= band, with the pixel row of the same frequency.
  template <typename F>
  void forBandRows(int band, const F& f) const {
    for (int i = 0; i < rows; ++i) {
      if (std::min(i, rows - i) > band) continue;
      f(i, wrapIndex(signedIndex(i, rows), pixelRows));
    }
  }

  /// field = ifft(kernel .* spectrum) on this grid, rows outside the
  /// lattice pruned (`live` is scratch of `rows` flags).
  void kernelField(const Fft2d& coarseFft, const LatticeValues& spectrum,
                   const LatticeValues& kernel, ComplexGrid& field,
                   std::vector<std::uint8_t>& live) const {
    live = latticeRows;
    for (int r = 0; r < rows; ++r) {
      if (live[static_cast<std::size_t>(r)] != 0) {
        std::fill_n(field.rowPtr(r), cols, Complex(0.0, 0.0));
      }
    }
    for (std::size_t s = 0; s < index.size(); ++s) {
      field.data()[index[s]] = spectrum[s] * kernel[s];
    }
    coarseFft.transform(field, /*invert=*/true, live.data());
  }
};

}  // namespace

void socsImage(const Fft2d& fft, const std::vector<LatticePoint>& lattice,
               const LatticeValues& spectrum, const LatticeValues* kernels,
               const double* weights, int count, double dose,
               RealGrid& intensity) {
  const CoarseGrid grid(fft, lattice);
  const Fft2d& coarseFft = fft2dFor(grid.rows, grid.cols, fft.build());
  ComplexGrid field(grid.rows, grid.cols);
  RealGrid sum(grid.rows, grid.cols);
  std::vector<std::uint8_t> live(static_cast<std::size_t>(grid.rows));
  for (int k = 0; k < count; ++k) {
    grid.kernelField(coarseFft, spectrum, kernels[k], field, live);
    const double w = weights[k] * dose;
    const Complex* f = field.data();
    double* out = sum.data();
    for (std::size_t i = 0; i < sum.size(); ++i) out[i] += w * std::norm(f[i]);
  }

  // The sum's +-2R band, scaled to the pixel spectrum, then one
  // band-pruned inverse onto the pixel grid.
  const int band = 2 * grid.radius;
  ComplexGrid coarseBand(grid.rows, coarseFft.bandColumns(band));
  coarseFft.forwardRealBand(sum, band, coarseBand);
  ComplexGrid pixelBand(fft.rows(), fft.bandColumns(band));
  const int lastCol = std::min(band, grid.cols / 2);
  const double scale = grid.spectrumScale();
  grid.forBandRows(band, [&](int cr, int pr) {
    const Complex* src = coarseBand.rowPtr(cr);
    Complex* dst = pixelBand.rowPtr(pr);
    for (int c = 0; c <= lastCol; ++c) dst[c] = src[c] * scale;
  });
  fft.inverseRealBand(pixelBand, band, intensity);
}

void socsGradient(const Fft2d& fft, const std::vector<LatticePoint>& lattice,
                  const LatticeValues& maskSpectrum,
                  const LatticeValues* kernels, const double* weights,
                  int count, const RealGrid& gField, RealGrid& grad) {
  const CoarseGrid grid(fft, lattice);
  const Fft2d& coarseFft = fft2dFor(grid.rows, grid.cols, fft.build());

  // g_c: the +-2R band of dF/dI, resampled onto the coarse grid.
  const int gBand = 2 * grid.radius;
  RealGrid gCoarse(grid.rows, grid.cols);
  {
    ComplexGrid pixelBand(fft.rows(), fft.bandColumns(gBand));
    fft.forwardRealBand(gField, gBand, pixelBand);
    ComplexGrid coarseBand(grid.rows, coarseFft.bandColumns(gBand));
    const int lastCol = std::min(gBand, grid.cols / 2);
    const double scale = grid.spectrumScale();
    grid.forBandRows(gBand, [&](int cr, int pr) {
      const Complex* src = pixelBand.rowPtr(pr);
      Complex* dst = coarseBand.rowPtr(cr);
      for (int c = 0; c <= lastCol; ++c) dst[c] = src[c] * scale;
    });
    coarseFft.inverseRealBand(coarseBand, gBand, gCoarse);
  }

  // X = sum_k w_k flip(h_k) .* fft(g_c .* conj(b_k)), read only at the
  // flipped kernel samples.
  ComplexGrid field(grid.rows, grid.cols);
  ComplexGrid accum(grid.rows, grid.cols);
  std::vector<std::uint8_t> live(static_cast<std::size_t>(grid.rows));
  for (int k = 0; k < count; ++k) {
    grid.kernelField(coarseFft, maskSpectrum, kernels[k], field, live);
    double* f = reinterpret_cast<double*>(field.data());
    const double* g = gCoarse.data();
    for (std::size_t i = 0; i < gCoarse.size(); ++i) {
      f[2 * i] *= g[i];
      f[2 * i + 1] *= -g[i];
    }
    // The same fault-injection site as Fft2d::forward.
    MOSAIC_FAILPOINT_DATA("fft.forward", f, field.size() * 2);
    coarseFft.transform(field, /*invert=*/false, nullptr);
    const LatticeValues& kernel = kernels[k];
    const Complex w(weights[k], 0.0);
    for (std::size_t s = 0; s < kernel.size(); ++s) {
      const auto site = static_cast<std::size_t>(grid.flipped[s]);
      accum.data()[site] += field.data()[site] * kernel[s] * w;
    }
  }

  // 2 Re ifft(X) = ifft(H) with the Hermitian H(f) = X(f) + conj(X(-f)):
  // its +-R half band onto the pixel grid through one real inverse.
  const int band = grid.radius;
  ComplexGrid pixelBand(fft.rows(), fft.bandColumns(band));
  const int lastCol = std::min(band, fft.cols() / 2);
  for (int pr = 0; pr < fft.rows(); ++pr) {
    const int sr = signedIndex(pr, fft.rows());
    if (std::abs(sr) > band) continue;
    const int r = wrapIndex(sr, grid.rows);
    const int mr = wrapIndex(-sr, grid.rows);
    Complex* dst = pixelBand.rowPtr(pr);
    for (int c = 0; c <= lastCol; ++c) {
      dst[c] = accum(r, wrapIndex(c, grid.cols)) +
               std::conj(accum(mr, wrapIndex(-c, grid.cols)));
    }
  }
  fft.inverseRealBand(pixelBand, band, grad);
}

}  // namespace exec
}  // namespace mosaic
