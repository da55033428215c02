/// Unit and property tests for the math library: Grid, FFT, the Gaussian
/// blur, eigensolvers, stats.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <utility>

#include "math/convolution.hpp"
#include "math/eigen.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"
#include "math/resample.hpp"
#include "math/stats.hpp"
#include "reference.hpp"
#include "support/rng.hpp"

namespace mosaic {
namespace {

using Cplx = std::complex<double>;
constexpr double kPi = 3.14159265358979323846;

ComplexGrid randomComplexGrid(int rows, int cols, Rng& rng) {
  ComplexGrid g(rows, cols);
  for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return g;
}

RealGrid randomRealGrid(int rows, int cols, Rng& rng) {
  RealGrid g(rows, cols);
  for (auto& v : g) v = rng.uniform(-1, 1);
  return g;
}

// ----------------------------------------------------------------- grid

TEST(Grid, ConstructionAndAccess) {
  RealGrid g(3, 4, 1.5);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g(2, 3), 1.5);
  g(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(g.at(1, 2), 7.0);
}

TEST(Grid, AtThrowsOutOfBounds) {
  RealGrid g(2, 2);
  EXPECT_THROW(g.at(2, 0), InvalidArgument);
  EXPECT_THROW(g.at(0, -1), InvalidArgument);
}

TEST(Grid, NonPositiveDimensionsThrow) {
  EXPECT_THROW(RealGrid(0, 3), InvalidArgument);
  EXPECT_THROW(RealGrid(3, -1), InvalidArgument);
}

TEST(Grid, SameShapeAndEquality) {
  RealGrid a(2, 3, 1.0);
  RealGrid b(2, 3, 1.0);
  RealGrid c(3, 2, 1.0);
  EXPECT_TRUE(a.sameShape(b));
  EXPECT_FALSE(a.sameShape(c));
  EXPECT_EQ(a, b);
  b(0, 0) = 2.0;
  EXPECT_NE(a, b);
}

TEST(Grid, Conversions) {
  RealGrid r(2, 2);
  r(0, 0) = 1.0;
  r(1, 1) = -2.0;
  const ComplexGrid c = toComplex(r);
  EXPECT_EQ(c(0, 0), Cplx(1.0, 0.0));
  const RealGrid back = realPart(c);
  EXPECT_EQ(back, r);
  const RealGrid mag = squaredMagnitude(c);
  EXPECT_DOUBLE_EQ(mag(1, 1), 4.0);
}

TEST(Grid, ThresholdAndBitConversion) {
  RealGrid r(1, 3);
  r(0, 0) = 0.1;
  r(0, 1) = 0.5;
  r(0, 2) = 0.9;
  const BitGrid b = thresholdGrid(r, 0.5);
  EXPECT_EQ(b(0, 0), 0u);
  EXPECT_EQ(b(0, 1), 0u);  // strict >
  EXPECT_EQ(b(0, 2), 1u);
  const RealGrid rr = toReal(b);
  EXPECT_DOUBLE_EQ(rr(0, 2), 1.0);
}

// ---------------------------------------------------------------- stats

TEST(Stats, RmsSumMaxAbs) {
  RealGrid g(1, 4);
  g(0, 0) = 1;
  g(0, 1) = -1;
  g(0, 2) = 1;
  g(0, 3) = -1;
  EXPECT_DOUBLE_EQ(rms(g), 1.0);
  EXPECT_DOUBLE_EQ(sum(g), 0.0);
  EXPECT_DOUBLE_EQ(maxAbs(g), 1.0);
}

TEST(Stats, Popcount) {
  BitGrid g(2, 2, 0);
  g(0, 1) = 1;
  g(1, 1) = 1;
  EXPECT_EQ(popcount(g), 2);
}

// ----------------------------------------------------------------- fft

TEST(FftPlan, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(0), InvalidArgument);
  EXPECT_THROW(FftPlan(3), InvalidArgument);
  EXPECT_THROW(FftPlan(12), InvalidArgument);
  EXPECT_NO_THROW(FftPlan(16));
}

TEST(FftPlan, SizeOneIsIdentity) {
  FftPlan plan(1);
  Cplx x[1] = {{3.0, -2.0}};
  plan.forward(x);
  EXPECT_EQ(x[0], Cplx(3.0, -2.0));
  plan.inverse(x);
  EXPECT_EQ(x[0], Cplx(3.0, -2.0));
}

TEST(FftPlan, DeltaTransformsToAllOnes) {
  FftPlan plan(8);
  std::vector<Cplx> x(8, {0, 0});
  x[0] = {1, 0};
  plan.forward(x.data());
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(FftPlan, ConstantTransformsToDcSpike) {
  FftPlan plan(8);
  std::vector<Cplx> x(8, {2.0, 0});
  plan.forward(x.data());
  EXPECT_NEAR(x[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-12);
}

TEST(FftPlan, SinePeaksAtItsBin) {
  const std::size_t n = 64;
  FftPlan plan(n);
  std::vector<Cplx> x(n);
  const int bin = 5;
  for (std::size_t j = 0; j < n; ++j) {
    x[j] = {std::cos(2 * kPi * bin * static_cast<double>(j) / n), 0.0};
  }
  plan.forward(x.data());
  EXPECT_NEAR(x[static_cast<std::size_t>(bin)].real(), n / 2.0, 1e-9);
  EXPECT_NEAR(x[n - bin].real(), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[0]), 0.0, 1e-9);
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseOfForwardIsIdentity) {
  const std::size_t n = GetParam();
  FftPlan plan(n);
  Rng rng(n * 977 + 1);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<Cplx> y = x;
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  FftPlan plan(n);
  Rng rng(n * 31 + 7);
  std::vector<Cplx> x(n);
  double timeEnergy = 0.0;
  for (auto& v : x) {
    v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    timeEnergy += std::norm(v);
  }
  plan.forward(x.data());
  double freqEnergy = 0.0;
  for (const auto& v : x) freqEnergy += std::norm(v);
  EXPECT_NEAR(freqEnergy / static_cast<double>(n), timeEnergy,
              1e-9 * timeEnergy + 1e-12);
}

TEST_P(FftRoundTrip, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  if (n > 64) GTEST_SKIP() << "naive DFT too slow";
  FftPlan plan(n);
  Rng rng(n + 5);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<Cplx> naive(n, {0, 0});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double a = -2 * kPi * static_cast<double>(k * j % n) / n;
      naive[k] += x[j] * Cplx{std::cos(a), std::sin(a)};
    }
  }
  plan.forward(x.data());
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), naive[k].real(), 1e-9);
    EXPECT_NEAR(x[k].imag(), naive[k].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft2d, RoundTripAndShapeChecks) {
  Fft2d fft(8, 16);
  Rng rng(42);
  ComplexGrid g = randomComplexGrid(8, 16, rng);
  ComplexGrid copy = g;
  fft.forward(g);
  fft.inverse(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(g.data()[i].real(), copy.data()[i].real(), 1e-10);
    EXPECT_NEAR(g.data()[i].imag(), copy.data()[i].imag(), 1e-10);
  }
  ComplexGrid bad(4, 4);
  EXPECT_THROW(fft.forward(bad), InvalidArgument);
}

TEST(Fft2d, TwoDimDeltaIsFlat) {
  Fft2d fft(4, 4);
  ComplexGrid g(4, 4, {0, 0});
  g(0, 0) = {1, 0};
  fft.forward(g);
  for (const auto& v : g) EXPECT_NEAR(std::abs(v - Cplx{1, 0}), 0.0, 1e-12);
}

TEST(Fft2d, SeparableProductMatches1d) {
  const int n = 8;
  Rng rng(3);
  std::vector<Cplx> row(n);
  std::vector<Cplx> col(n);
  for (auto& v : row) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto& v : col) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  ComplexGrid g(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      g(r, c) = col[static_cast<std::size_t>(r)] * row[static_cast<std::size_t>(c)];
    }
  }
  Fft2d fft(n, n);
  fft.forward(g);
  FftPlan plan(n);
  std::vector<Cplx> rowF = row;
  std::vector<Cplx> colF = col;
  plan.forward(rowF.data());
  plan.forward(colF.data());
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      const Cplx want = colF[static_cast<std::size_t>(r)] *
                        rowF[static_cast<std::size_t>(c)];
      EXPECT_NEAR(std::abs(g(r, c) - want), 0.0, 1e-9);
    }
  }
}

TEST(Fft2d, SharedCacheReturnsSameInstance) {
  const Fft2d& a = fft2dFor(16, 16);
  const Fft2d& b = fft2dFor(16, 16);
  EXPECT_EQ(&a, &b);
  const Fft2d& c = fft2dFor(16, 32);
  EXPECT_NE(&a, &c);
}

// ------------------------------------------------------------- resample

TEST(Resample, DownsampleMeanAveragesBlocks) {
  RealGrid fine(4, 4, 0.0);
  fine(0, 0) = 4.0;  // block (0,0): {4,0,0,0} -> 1.0
  fine(2, 2) = 1.0;
  fine(2, 3) = 1.0;
  fine(3, 2) = 1.0;
  fine(3, 3) = 1.0;  // block (1,1): all ones -> 1.0
  const RealGrid coarse = downsampleMean(fine, 2);
  EXPECT_EQ(coarse.rows(), 2);
  EXPECT_DOUBLE_EQ(coarse(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(coarse(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(coarse(1, 1), 1.0);
}

TEST(Resample, DownsampleMajorityThreshold) {
  BitGrid fine(2, 4, 0);
  fine(0, 0) = 1;
  fine(1, 0) = 1;  // left block: 2/4 -> set (>= half)
  fine(0, 2) = 1;  // right block: 1/4 -> clear
  const BitGrid coarse = downsampleMajority(fine, 2);
  EXPECT_EQ(coarse(0, 0), 1u);
  EXPECT_EQ(coarse(0, 1), 0u);
}

TEST(Resample, UpsampleReplicatesPixels) {
  RealGrid coarse(2, 2);
  coarse(0, 0) = 1.0;
  coarse(0, 1) = 2.0;
  coarse(1, 0) = 3.0;
  coarse(1, 1) = 4.0;
  const RealGrid fine = upsampleNearest(coarse, 3);
  EXPECT_EQ(fine.rows(), 6);
  EXPECT_DOUBLE_EQ(fine(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(fine(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(fine(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(fine(5, 5), 4.0);
}

TEST(Resample, UpsampleThenDownsampleIsIdentity) {
  Rng rng(71);
  const RealGrid coarse = randomRealGrid(8, 8, rng);
  const RealGrid roundTrip = downsampleMean(upsampleNearest(coarse, 4), 4);
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    EXPECT_NEAR(roundTrip.data()[i], coarse.data()[i], 1e-12);
  }
}

TEST(Resample, ValidationErrors) {
  RealGrid g(6, 6);
  EXPECT_THROW(downsampleMean(g, 4), InvalidArgument);  // not divisible
  EXPECT_THROW(downsampleMean(g, 0), InvalidArgument);
  EXPECT_THROW(upsampleNearest(g, 0), InvalidArgument);
}

// ------------------------------------------------------------- gaussian

TEST(GaussianBlur, ZeroSigmaIsIdentity) {
  Rng rng(31);
  const RealGrid g = randomRealGrid(8, 8, rng);
  EXPECT_EQ(gaussianBlur(g, 0.0), g);
  EXPECT_EQ(gaussianBlur(g, -1.0), g);
}

TEST(GaussianBlur, PreservesMeanAndReducesVariance) {
  Rng rng(37);
  const int n = 32;
  RealGrid g = randomRealGrid(n, n, rng);
  const double meanBefore = sum(g) / static_cast<double>(g.size());
  const RealGrid b = gaussianBlur(g, 2.0);
  const double meanAfter = sum(b) / static_cast<double>(b.size());
  EXPECT_NEAR(meanAfter, meanBefore, 1e-10);
  double varBefore = 0.0;
  double varAfter = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    varBefore += (g.data()[i] - meanBefore) * (g.data()[i] - meanBefore);
    varAfter += (b.data()[i] - meanAfter) * (b.data()[i] - meanAfter);
  }
  EXPECT_LT(varAfter, 0.5 * varBefore);
}

TEST(GaussianBlur, SpreadsADelta) {
  const int n = 32;
  RealGrid g(n, n, 0.0);
  g(16, 16) = 1.0;
  const RealGrid b = gaussianBlur(g, 1.5);
  EXPECT_LT(b(16, 16), 1.0);
  EXPECT_GT(b(16, 16), b(16, 18));
  EXPECT_GT(b(16, 18), 0.0);
  // Radially symmetric around the impulse.
  EXPECT_NEAR(b(16, 18), b(18, 16), 1e-12);
  EXPECT_NEAR(b(16, 14), b(16, 18), 1e-12);
}

TEST(GaussianBlur, SelfAdjoint) {
  // <Blur(a), b> == <a, Blur(b)> -- the property the ILT gradient chain
  // relies on when resist diffusion is enabled.
  Rng rng(41);
  const int n = 16;
  const RealGrid a = randomRealGrid(n, n, rng);
  const RealGrid b = randomRealGrid(n, n, rng);
  const RealGrid ba = gaussianBlur(a, 1.2);
  const RealGrid bb = gaussianBlur(b, 1.2);
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    lhs += ba.data()[i] * b.data()[i];
    rhs += a.data()[i] * bb.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, std::fabs(lhs)));
}

// ---------------------------------------------------------------- eigen

TEST(Eigen, DiagonalMatrixSortedDescending) {
  Matrix m(3, 3);
  m(0, 0) = 1.0;
  m(1, 1) = 5.0;
  m(2, 2) = 3.0;
  const auto r = jacobiEigenSymmetric(m);
  ASSERT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_NEAR(r.eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[2], 1.0, 1e-12);
}

TEST(Eigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m(2, 2);
  m(0, 0) = 2;
  m(0, 1) = 1;
  m(1, 0) = 1;
  m(1, 1) = 2;
  const auto r = jacobiEigenSymmetric(m);
  EXPECT_NEAR(r.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 1.0, 1e-12);
  // eigenvector for 3 is (1,1)/sqrt(2) up to sign
  EXPECT_NEAR(std::fabs(r.eigenvectors(0, 0)), 1 / std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(r.eigenvectors(0, 0), r.eigenvectors(0, 1), 1e-10);
}

class JacobiOracle : public ::testing::TestWithParam<int> {};

TEST_P(JacobiOracle, RowStoredEigenvectorsMatchColumnFormBitForBit) {
  // The solver keeps V^T (contiguous rows) where the oracle keeps V
  // (strided columns); every element sees the same operations in the same
  // order, so eigenvalues and eigenvectors must agree bit for bit.
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 131 + 5);
  Matrix m(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      m(r, c) = rng.uniform(-1, 1);
      m(c, r) = m(r, c);
    }
  }
  const auto oracle = reference::jacobiColumnForm(m);
  const auto res = jacobiEigenSymmetric(m);
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (int k = 0; k < n; ++k) {
    ASSERT_EQ(bits(res.eigenvalues[static_cast<std::size_t>(k)]),
              bits(oracle.eigenvalues[static_cast<std::size_t>(k)]))
        << "eigenvalue " << k;
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(bits(res.eigenvectors(k, i)),
                bits(oracle.eigenvectors[static_cast<std::size_t>(k)]
                                        [static_cast<std::size_t>(i)]))
          << "eigenvector " << k << " entry " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiOracle,
                         ::testing::Values(1, 2, 3, 17, 64, 322));

// The solver keeps the next 8 rows current and catches every other row
// up in groups of 8 (a short group padded): sizes B - 1, B, B + 1 and
// 2B + 1 put the last block and the last group on both sides of a full one.
INSTANTIATE_TEST_SUITE_P(RowBlockEdges, JacobiOracle,
                         ::testing::Values(7, 8, 9, 17));

/// jacobiEigenSymmetric(m) must reproduce the column-form oracle bit for
/// bit: eigenvalues and every eigenvector entry.
void expectColumnFormBits(const Matrix& m) {
  const auto oracle = reference::jacobiColumnForm(m);
  const auto res = jacobiEigenSymmetric(m);
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (int k = 0; k < m.rows(); ++k) {
    const auto kk = static_cast<std::size_t>(k);
    ASSERT_EQ(bits(res.eigenvalues[kk]), bits(oracle.eigenvalues[kk]))
        << "eigenvalue " << k;
    for (int i = 0; i < m.rows(); ++i) {
      ASSERT_EQ(bits(res.eigenvectors(k, i)),
                bits(oracle.eigenvectors[kk][static_cast<std::size_t>(i)]))
          << "eigenvector " << k << " entry " << i;
    }
  }
}

TEST(JacobiColumnForm, ZeroOffDiagonalBlocksMatchBitForBit) {
  // The focus-0 TCC is real, so its embedding [[Re, -Im], [Im, Re]] is
  // block diagonal with exactly zero coupling blocks: every rotation of a
  // first-half row against a second-half row is skipped.
  for (const int m : {13, 40}) {
    Rng rng(static_cast<std::uint64_t>(m) * 17 + 1);
    Matrix e(2 * m, 2 * m);
    for (int r = 0; r < m; ++r) {
      for (int c = r; c < m; ++c) {
        const double v = rng.uniform(-1, 1);
        e(r, c) = e(c, r) = e(r + m, c + m) = e(c + m, r + m) = v;
      }
    }
    SCOPED_TRACE(2 * m);
    expectColumnFormBits(e);
  }
}

TEST(JacobiColumnForm, RotationsSkippedMidSweepMatchBitForBit) {
  // Indices of different classes (i mod 3) couple only through entries
  // far below the skip threshold |a_pq| <= 1e-14 * scale. Rotations keep
  // them there, so every p-sweep skips two rotations in three, spread
  // through it.
  const int n = 45;
  Rng rng(2024);
  Matrix m(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      const double v = rng.uniform(-1, 1);
      m(r, c) = m(c, r) = (r % 3 == c % 3) ? v : v * 1e-17;
    }
  }
  expectColumnFormBits(m);
}

TEST(JacobiColumnForm, HostSweepKernelMatchesBitForBit) {
  // On an AVX2 host the solver must take the AVX2 build of its sweep;
  // n = 67 leaves a scalar tail after the 4-wide row-pair steps.
  EXPECT_STREQ(jacobiSweepKernel(), exec::cpuHasAvx2() ? "avx2" : "portable");
  const int n = 67;
  Rng rng(static_cast<std::uint64_t>(n) * 131 + 5);
  Matrix m(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      m(r, c) = rng.uniform(-1, 1);
      m(c, r) = m(r, c);
    }
  }
  expectColumnFormBits(m);
}

TEST(Eigen, AsymmetricInputThrows) {
  Matrix m(2, 2);
  m(0, 1) = 1.0;
  EXPECT_THROW(jacobiEigenSymmetric(m), InvalidArgument);
  Matrix rect(2, 3);
  EXPECT_THROW(jacobiEigenSymmetric(rect), InvalidArgument);
}

class EigenReconstruction : public ::testing::TestWithParam<int> {};

TEST_P(EigenReconstruction, SymmetricReconstructs) {
  const int n = GetParam();
  Rng rng(n * 7 + 3);
  Matrix m(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      m(r, c) = rng.uniform(-1, 1);
      m(c, r) = m(r, c);
    }
  }
  const auto res = jacobiEigenSymmetric(m);
  // A = sum_k w_k v_k v_k^T
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) {
        acc += res.eigenvalues[static_cast<std::size_t>(k)] *
               res.eigenvectors(k, r) * res.eigenvectors(k, c);
      }
      EXPECT_NEAR(acc, m(r, c), 1e-9);
    }
  }
  // Orthonormality.
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      double dot = 0.0;
      for (int k = 0; k < n; ++k) {
        dot += res.eigenvectors(i, k) * res.eigenvectors(j, k);
      }
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST_P(EigenReconstruction, HermitianReconstructs) {
  const int n = GetParam();
  Rng rng(n * 11 + 1);
  std::vector<Cplx> h(static_cast<std::size_t>(n) * n);
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      if (r == c) {
        h[static_cast<std::size_t>(r) * n + c] = {rng.uniform(-1, 1), 0.0};
      } else {
        const Cplx v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
        h[static_cast<std::size_t>(r) * n + c] = v;
        h[static_cast<std::size_t>(c) * n + r] = std::conj(v);
      }
    }
  }
  const auto res = jacobiEigenHermitian(h, n);
  ASSERT_EQ(res.eigenvalues.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      Cplx acc{0, 0};
      for (int k = 0; k < n; ++k) {
        acc += res.eigenvalues[static_cast<std::size_t>(k)] *
               res.eigenvectors[static_cast<std::size_t>(k)]
                               [static_cast<std::size_t>(r)] *
               std::conj(res.eigenvectors[static_cast<std::size_t>(k)]
                                         [static_cast<std::size_t>(c)]);
      }
      EXPECT_NEAR(std::abs(acc - h[static_cast<std::size_t>(r) * n + c]), 0.0,
                  1e-8);
    }
  }
  // Complex orthonormality.
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      Cplx dot{0, 0};
      for (int k = 0; k < n; ++k) {
        dot += std::conj(res.eigenvectors[static_cast<std::size_t>(i)]
                                         [static_cast<std::size_t>(k)]) *
               res.eigenvectors[static_cast<std::size_t>(j)]
                               [static_cast<std::size_t>(k)];
      }
      EXPECT_NEAR(std::abs(dot - (i == j ? Cplx{1, 0} : Cplx{0, 0})), 0.0,
                  1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenReconstruction,
                         ::testing::Values(2, 3, 5, 8, 16));

/// n x n PSD Hermitian matrix with a geometrically decaying spectrum
/// (ratio 0.7), the shape of the TCC operator that the truncated solver
/// exists for.
std::vector<Cplx> decayingPsd(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Cplx> h(static_cast<std::size_t>(n) * n, Cplx{0, 0});
  double weight = 1.0;
  for (int term = 0; term < n; ++term, weight *= 0.7) {
    std::vector<Cplx> g(static_cast<std::size_t>(n));
    for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        h[static_cast<std::size_t>(r) * n + c] +=
            weight * g[static_cast<std::size_t>(r)] *
            std::conj(g[static_cast<std::size_t>(c)]);
      }
    }
  }
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      const Cplx sym = 0.5 * (h[static_cast<std::size_t>(r) * n + c] +
                              std::conj(h[static_cast<std::size_t>(c) * n + r]));
      h[static_cast<std::size_t>(r) * n + c] = sym;
      h[static_cast<std::size_t>(c) * n + r] = std::conj(sym);
    }
  }
  return h;
}

TEST(Eigen, SubspaceTopKMatchesJacobiOnDecayingSpectrum) {
  const int n = 40;
  const int k = 6;
  const std::vector<Cplx> h = decayingPsd(n, 47);

  const auto full = jacobiEigenHermitian(h, n);
  const auto top = topEigenpairsHermitian(h, n, k);
  ASSERT_EQ(top.eigenvalues.size(), static_cast<std::size_t>(k));
  const double scale = std::max(1.0, std::fabs(full.eigenvalues.front()));
  for (int j = 0; j < k; ++j) {
    EXPECT_NEAR(top.eigenvalues[static_cast<std::size_t>(j)],
                full.eigenvalues[static_cast<std::size_t>(j)], 1e-8 * scale);
    // Residual ||H v - lambda v|| certifies the eigenvector without having
    // to pair it against the dense solver's (phase-ambiguous) vectors.
    double residual = 0.0;
    for (int r = 0; r < n; ++r) {
      Cplx acc{0, 0};
      for (int c = 0; c < n; ++c) {
        acc += h[static_cast<std::size_t>(r) * n + c] *
               top.eigenvectors[static_cast<std::size_t>(j)]
                               [static_cast<std::size_t>(c)];
      }
      acc -= top.eigenvalues[static_cast<std::size_t>(j)] *
             top.eigenvectors[static_cast<std::size_t>(j)]
                             [static_cast<std::size_t>(r)];
      residual = std::max(residual, std::abs(acc));
    }
    EXPECT_LT(residual, 1e-6 * scale);
  }
  // Orthonormality of the returned block.
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < k; ++j) {
      Cplx dot{0, 0};
      for (int r = 0; r < n; ++r) {
        dot += std::conj(top.eigenvectors[static_cast<std::size_t>(i)]
                                         [static_cast<std::size_t>(r)]) *
               top.eigenvectors[static_cast<std::size_t>(j)]
                               [static_cast<std::size_t>(r)];
      }
      EXPECT_NEAR(std::abs(dot - (i == j ? Cplx{1, 0} : Cplx{0, 0})), 0.0,
                  1e-8);
    }
  }
  // Fixed seeding plus the phase convention make reruns bit-identical.
  const auto again = topEigenpairsHermitian(h, n, k);
  EXPECT_EQ(top.eigenvalues, again.eigenvalues);
  EXPECT_EQ(top.eigenvectors, again.eigenvectors);
}

/// (n, k): the iteration block is min(n, max(2k, k + 8)) columns.
class SubspaceOracle
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SubspaceOracle, LaneBlockedProductsMatchColumnLoopsBitForBit) {
  // The block products run eight columns as vector lanes in a split
  // re/im layout padded to whole lane groups; every eigenvalue and
  // eigenvector entry must equal the column-at-a-time iteration's, in
  // every build the host can run.
  const auto [n, k] = GetParam();
  const std::vector<Cplx> h =
      decayingPsd(n, static_cast<std::uint64_t>(n) * 7 + 3);
  const HermitianEigenResult want = reference::topEigenpairsByColumns(h, n, k);
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const FftBuild build : reference::runnableBuilds()) {
    SCOPED_TRACE(fftBuildName(build));
    const HermitianEigenResult got =
        topEigenpairsHermitian(h, n, k, 600, 1e-11, build);
    ASSERT_EQ(got.eigenvalues.size(), static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      ASSERT_EQ(bits(got.eigenvalues[jj]), bits(want.eigenvalues[jj]))
          << "eigenvalue " << j;
      for (int i = 0; i < n; ++i) {
        const auto ii = static_cast<std::size_t>(i);
        ASSERT_EQ(bits(got.eigenvectors[jj][ii].real()),
                  bits(want.eigenvectors[jj][ii].real()))
            << "eigenvector " << j << " entry " << i;
        ASSERT_EQ(bits(got.eigenvectors[jj][ii].imag()),
                  bits(want.eigenvectors[jj][ii].imag()))
            << "eigenvector " << j << " entry " << i;
      }
    }
  }
}

// n = 5, 7, 8 and 9 put the whole (n-column) block below, at and one past
// the eight lanes; blocks of 10, 14 and 60 columns end in a partial lane
// group, 48 and 64 in whole ones.
INSTANTIATE_TEST_SUITE_P(
    LaneEdges, SubspaceOracle,
    ::testing::Values(std::pair{5, 1}, std::pair{7, 2}, std::pair{8, 1},
                      std::pair{9, 1}, std::pair{12, 2}, std::pair{40, 6},
                      std::pair{70, 24}, std::pair{90, 30},
                      std::pair{100, 32}));

TEST(Eigen, SubspaceRejectsBadArguments) {
  std::vector<Cplx> h = {{2, 0}, {0, 0}, {0, 0}, {1, 0}};
  EXPECT_THROW(topEigenpairsHermitian(h, 2, 0), InvalidArgument);
  EXPECT_THROW(topEigenpairsHermitian(h, 2, 3), InvalidArgument);
}

TEST(Eigen, HermitianRejectsNonHermitian) {
  std::vector<Cplx> h = {{1, 0}, {1, 1}, {1, 1}, {2, 0}};  // h01 != conj(h10)
  EXPECT_THROW(jacobiEigenHermitian(h, 2), InvalidArgument);
}

TEST(Eigen, HermitianPsdHasNonNegativeSpectrum) {
  // H = B B^H is PSD.
  const int n = 6;
  Rng rng(29);
  std::vector<Cplx> b(static_cast<std::size_t>(n) * n);
  for (auto& v : b) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<Cplx> h(static_cast<std::size_t>(n) * n, Cplx{0, 0});
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      Cplx acc{0, 0};
      for (int k = 0; k < n; ++k) {
        acc += b[static_cast<std::size_t>(r) * n + k] *
               std::conj(b[static_cast<std::size_t>(c) * n + k]);
      }
      h[static_cast<std::size_t>(r) * n + c] = acc;
    }
  }
  // Exact Hermitian symmetrization to cancel rounding asymmetry.
  for (int r = 0; r < n; ++r) {
    for (int c = r; c < n; ++c) {
      const Cplx sym = 0.5 * (h[static_cast<std::size_t>(r) * n + c] +
                              std::conj(h[static_cast<std::size_t>(c) * n + r]));
      h[static_cast<std::size_t>(r) * n + c] = sym;
      h[static_cast<std::size_t>(c) * n + r] = std::conj(sym);
    }
  }
  const auto res = jacobiEigenHermitian(h, n);
  for (double w : res.eigenvalues) EXPECT_GT(w, -1e-9);
}

TEST(Eigen, MatrixIdentityFactory) {
  const Matrix id = Matrix::identity(3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

}  // namespace
}  // namespace mosaic
