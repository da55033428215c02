#include "math/convolution.hpp"

#include <cmath>
#include <vector>

#include "math/fft.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {

RealGrid gaussianBlur(const RealGrid& grid, double sigmaPx) {
  if (sigmaPx <= 0.0) return grid;
  MOSAIC_SPAN("conv.gaussian_blur");
  const int rows = grid.rows();
  const int cols = grid.cols();
  const Fft2d& fft = fft2dFor(rows, cols);
  ComplexGrid spectrum = fft.forwardReal(grid);

  // exp(-2 pi^2 sigma^2 |f|^2) separates into per-axis factors. Signed
  // frequency convention: index k maps to k/n for k < ceil(n/2) and to
  // (k - n)/n above, so the Nyquist bin of an even size is -1/2 (for this
  // even multiplier +1/2 would give the same value, but the convention is
  // pinned here and tested so asymmetric multipliers can't regress it).
  constexpr double kTwoPiSq = 2.0 * 3.14159265358979323846 *
                              3.14159265358979323846;
  const double k = kTwoPiSq * sigmaPx * sigmaPx;
  auto axisFactors = [k](int n) {
    std::vector<double> f(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double fi = (i < (n + 1) / 2 ? i : i - n) / static_cast<double>(n);
      f[static_cast<std::size_t>(i)] = std::exp(-k * fi * fi);
    }
    return f;
  };
  const std::vector<double> rowFactor = axisFactors(rows);
  const std::vector<double> colFactor = axisFactors(cols);
  for (int r = 0; r < rows; ++r) {
    const double fr = rowFactor[static_cast<std::size_t>(r)];
    std::complex<double>* row = spectrum.rowPtr(r);
    for (int c = 0; c < cols; ++c) {
      row[c] *= fr * colFactor[static_cast<std::size_t>(c)];
    }
  }

  RealGrid out(rows, cols);
  fft.inverseRealInto(spectrum, out);
  return out;
}

}  // namespace mosaic
