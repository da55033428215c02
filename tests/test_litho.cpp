/// Unit and physics-sanity tests for the lithography simulator: optics
/// validation, pupil, TCC construction, SOCS kernels and forward imaging.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "geometry/raster.hpp"
#include "litho/pupil.hpp"
#include "litho/simulator.hpp"
#include "litho/tcc.hpp"
#include "math/stats.hpp"
#include "reference.hpp"
#include "suite/testcases.hpp"
#include "support/failpoint.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace mosaic {
namespace {

OpticsConfig testOptics(int pixelNm = 8) {
  OpticsConfig optics;
  optics.pixelNm = pixelNm;
  return optics;
}

/// Shared simulator so the TCC eigendecomposition is paid once per suite.
LithoSimulator& sharedSim() {
  static LithoSimulator sim(testOptics(8));
  return sim;
}

Layout lineLayout(int widthNm) {
  Layout l;
  l.name = "line";
  l.sizeNm = 1024;
  const int y0 = 512 - widthNm / 2;
  l.addRect(256, y0, 768, y0 + widthNm);
  return l;
}

// --------------------------------------------------------------- optics

TEST(Optics, ValidatesDimensions) {
  OpticsConfig o = testOptics();
  EXPECT_NO_THROW(o.validate());
  EXPECT_EQ(o.gridSize(), 128);

  o.pixelNm = 3;  // does not divide 1024
  EXPECT_THROW(o.validate(), InvalidArgument);

  o = testOptics();
  o.clipSizeNm = 960;  // 960/8 = 120, not a power of two
  EXPECT_THROW(o.validate(), InvalidArgument);

  o = testOptics();
  o.sigmaInner = 0.9;
  o.sigmaOuter = 0.6;
  EXPECT_THROW(o.validate(), InvalidArgument);

  o = testOptics();
  o.na = 1.5;  // >= immersion index
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(Optics, DerivedQuantities) {
  const OpticsConfig o = testOptics();
  EXPECT_NEAR(o.cutoffFreq(), 1.35 / 193.0, 1e-12);
  EXPECT_NEAR(o.freqStep(), 1.0 / 1024.0, 1e-15);
}

TEST(Optics, ResistModelSigmoid) {
  const ResistModel resist;
  EXPECT_NEAR(resist.sigmoid(resist.threshold), 0.5, 1e-12);
  EXPECT_GT(resist.sigmoid(1.0), 0.99);
  EXPECT_LT(resist.sigmoid(0.0), 0.01);
  EXPECT_TRUE(resist.prints(0.3));
  EXPECT_FALSE(resist.prints(0.2));
}

class ResistDerivative : public ::testing::TestWithParam<double> {};

TEST_P(ResistDerivative, MatchesFiniteDifference) {
  const ResistModel resist;
  const double intensity = GetParam();
  const double h = 1e-6;
  const double fd =
      (resist.sigmoid(intensity + h) - resist.sigmoid(intensity - h)) /
      (2 * h);
  EXPECT_NEAR(resist.sigmoidDerivative(intensity), fd,
              1e-5 * std::max(1.0, std::fabs(fd)));
}

INSTANTIATE_TEST_SUITE_P(Intensities, ResistDerivative,
                         ::testing::Values(0.0, 0.1, 0.225, 0.3, 0.5, 1.0));

TEST(Optics, CornerSets) {
  const auto eval = evaluationCorners(25.0, 0.02);
  ASSERT_EQ(eval.size(), 6u);
  EXPECT_EQ(eval.front(), nominalCorner());
  // Optimization corners: inner extreme, nominal, outer extreme.
  const auto opt = optimizationCorners(25.0, 0.02);
  ASSERT_EQ(opt.size(), 3u);
  EXPECT_DOUBLE_EQ(opt[0].focusNm, 25.0);
  EXPECT_DOUBLE_EQ(opt[0].dose, 0.98);
  EXPECT_EQ(opt[1], nominalCorner());
  EXPECT_DOUBLE_EQ(opt[2].focusNm, 0.0);
  EXPECT_DOUBLE_EQ(opt[2].dose, 1.02);
}

// ---------------------------------------------------------------- pupil

TEST(Pupil, CircAtNominalFocus) {
  const OpticsConfig o = testOptics();
  const Pupil p(o, 0.0);
  EXPECT_EQ(p.value(0.0, 0.0), std::complex<double>(1.0, 0.0));
  const double inside = 0.9 * o.cutoffFreq();
  EXPECT_EQ(p.value(inside, 0.0), std::complex<double>(1.0, 0.0));
  const double outside = 1.01 * o.cutoffFreq();
  EXPECT_EQ(p.value(outside, 0.0), std::complex<double>(0.0, 0.0));
}

TEST(Pupil, DefocusIsPurePhase) {
  const OpticsConfig o = testOptics();
  const Pupil p(o, 25.0);
  // Unit magnitude inside the pupil, zero outside.
  const double f = 0.7 * o.cutoffFreq();
  EXPECT_NEAR(std::abs(p.value(f, 0.0)), 1.0, 1e-12);
  EXPECT_EQ(p.value(1.1 * o.cutoffFreq(), 0.0),
            std::complex<double>(0.0, 0.0));
  // Zero phase on axis (referenced to the chief ray).
  EXPECT_NEAR(std::arg(p.value(0.0, 0.0)), 0.0, 1e-12);
  // Nonzero phase at the pupil edge.
  EXPECT_GT(std::fabs(std::arg(p.value(f, f * 0.5))), 1e-3);
}

TEST(Pupil, DefocusPhaseIsRadiallySymmetric) {
  const OpticsConfig o = testOptics();
  const Pupil p(o, 25.0);
  const double f = 0.5 * o.cutoffFreq();
  const auto a = p.value(f, 0.0);
  const auto b = p.value(0.0, f);
  const auto c = p.value(f / std::sqrt(2.0), f / std::sqrt(2.0));
  EXPECT_NEAR(std::abs(a - b), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(a - c), 0.0, 1e-9);
}

TEST(Pupil, ZernikePhasesBehaveByOrder) {
  OpticsConfig o = testOptics();
  const double f = 0.6 * o.cutoffFreq();

  // Coma: unit magnitude, antisymmetric phase (P(f) != P(-f)), no DC phase.
  o.aberrations = {};
  o.aberrations.comaX = 0.05;
  {
    const Pupil p(o, 0.0);
    EXPECT_NEAR(std::abs(p.value(f, 0.0)), 1.0, 1e-12);
    EXPECT_NEAR(std::arg(p.value(0.0, 0.0)), 0.0, 1e-12);
    EXPECT_GT(std::fabs(std::arg(p.value(f, 0.0)) -
                        std::arg(p.value(-f, 0.0))),
              1e-4);
    // comaX has no phase along the y axis (cos theta = 0).
    EXPECT_NEAR(std::arg(p.value(0.0, f)), 0.0, 1e-12);
  }

  // Astigmatism 0: opposite phase on the x and y axes.
  o.aberrations = {};
  o.aberrations.astigmatism0 = 0.05;
  {
    const Pupil p(o, 0.0);
    const double px = std::arg(p.value(f, 0.0));
    const double py = std::arg(p.value(0.0, f));
    EXPECT_NEAR(px, -py, 1e-10);
    EXPECT_GT(std::fabs(px), 1e-4);
  }

  // Spherical: radially symmetric, nonzero piston at the pupil center.
  o.aberrations = {};
  o.aberrations.spherical = 0.05;
  {
    const Pupil p(o, 0.0);
    EXPECT_NEAR(std::abs(std::arg(p.value(f, 0.0)) -
                         std::arg(p.value(0.0, f))),
                0.0, 1e-10);
    EXPECT_GT(std::fabs(std::arg(p.value(0.0, 0.0))), 1e-4);
  }
}

TEST(Pupil, ComaShiftsAPrintedLine) {
  // comaY displaces the image along y; the centroid of a printed line
  // must move relative to the ideal lens.
  OpticsConfig ideal;
  ideal.pixelNm = 16;
  OpticsConfig comatic = ideal;
  comatic.aberrations.comaY = 0.08;
  LithoSimulator simIdeal(ideal);
  LithoSimulator simComa(comatic);

  Layout l;
  l.name = "line";
  l.sizeNm = 1024;
  l.addRect(256, 480, 768, 544);
  const BitGrid target = rasterize(l, 16);
  // Intensity-weighted centroid of the aerial image: continuous, so it
  // resolves sub-pixel displacements.
  auto centroidRow = [](const RealGrid& aerial) {
    double num = 0.0;
    double den = 0.0;
    for (int r = 0; r < aerial.rows(); ++r) {
      for (int c = 0; c < aerial.cols(); ++c) {
        num += r * aerial(r, c);
        den += aerial(r, c);
      }
    }
    return num / den;
  };
  const double ideal_c =
      centroidRow(simIdeal.aerial(toReal(target), nominalCorner()));
  const double coma_c =
      centroidRow(simComa.aerial(toReal(target), nominalCorner()));
  EXPECT_GT(std::fabs(coma_c - ideal_c), 0.02);  // > 0.02 px = 0.3 nm
}

// ------------------------------------------------------------------ tcc

TEST(Tcc, LatticeCoversPupil) {
  const OpticsConfig o = testOptics();
  const auto lattice = pupilLattice(o);
  // cutoff/freqStep ~ 7.16 -> |indices| <= 7 disk: 149..163 points.
  EXPECT_GT(lattice.size(), 140u);
  EXPECT_LT(lattice.size(), 180u);
  bool hasDc = false;
  const double df = o.freqStep();
  const int radius = pupilRadius(o);
  for (const auto& s : lattice) {
    const double fx = s.col * df;
    const double fy = s.row * df;
    EXPECT_LE(fx * fx + fy * fy, o.cutoffFreq() * o.cutoffFreq() + 1e-15);
    EXPECT_LE(std::max(std::abs(s.row), std::abs(s.col)), radius);
    if (s.row == 0 && s.col == 0) hasDc = true;
  }
  EXPECT_TRUE(hasDc);
  // Signed sites, not wrapped to a grid: the lattice is the same at every
  // pitch of the clip.
  EXPECT_EQ(pupilLattice(testOptics(1)), lattice);
  EXPECT_EQ(pupilLattice(testOptics(128)), lattice);
}

TEST(Tcc, MatrixIsHermitianPsdDiagonal) {
  OpticsConfig o = testOptics();
  o.sourceOversample = 2;  // keep the test fast
  const auto lattice = pupilLattice(o);
  const auto tcc = buildTcc(o, 25.0, lattice);
  const int n = static_cast<int>(lattice.size());
  for (int p = 0; p < n; p += 7) {
    EXPECT_GE(tcc[static_cast<std::size_t>(p) * n + p].real(), 0.0);
    EXPECT_NEAR(tcc[static_cast<std::size_t>(p) * n + p].imag(), 0.0, 1e-12);
    for (int q = 0; q < n; q += 5) {
      const auto upper = tcc[static_cast<std::size_t>(p) * n + q];
      const auto lower = tcc[static_cast<std::size_t>(q) * n + p];
      EXPECT_NEAR(std::abs(upper - std::conj(lower)), 0.0, 1e-12);
    }
  }
}

TEST(Tcc, KernelWeightsDescendAndPositive) {
  const KernelSet& set = sharedSim().kernels(0.0);
  ASSERT_GT(set.kernelCount(), 0);
  EXPECT_LE(set.kernelCount(), 24);
  for (std::size_t k = 1; k < set.weights.size(); ++k) {
    EXPECT_LE(set.weights[k], set.weights[k - 1] + 1e-12);
    EXPECT_GT(set.weights[k], 0.0);
  }
}

TEST(Tcc, OpenFrameIntensityIsUnity) {
  // The key normalization invariant: an all-clear mask images to 1.0.
  LithoSimulator& sim = sharedSim();
  const int n = sim.gridSize();
  RealGrid open(n, n, 1.0);
  const RealGrid intensity = sim.aerial(open, nominalCorner());
  for (int r = 0; r < n; r += 17) {
    for (int c = 0; c < n; c += 13) {
      EXPECT_NEAR(intensity(r, c), 1.0, 1e-9);
    }
  }
}

/// The value of a lattice vector at DC, signed site (0, 0).
std::complex<double> dcValue(const std::vector<PupilSample>& lattice,
                             const exec::LatticeValues& values) {
  const auto dc = std::find(lattice.begin(), lattice.end(), PupilSample{0, 0});
  return values[static_cast<std::size_t>(dc - lattice.begin())];
}

TEST(Tcc, CombinedKernelDcIsUnitMagnitude) {
  const KernelSet& set = sharedSim().kernels(0.0);
  EXPECT_NEAR(std::abs(dcValue(set.lattice, set.combined)), 1.0, 1e-9);
  EXPECT_EQ(set.combined.size(), set.lattice.size());
}

/// FNV-1a over the pitch-free content of a kernel set: focus, weights,
/// the lattice's signed (row, col) in order, each kernel's values and the
/// combined values (counts mixed in, so a dropped sample cannot alias).
std::string kernelSetDigest(const KernelSet& set) {
  Fnv1a h;
  h.mix(set.focusNm);
  h.mix(static_cast<long long>(set.weights.size()));
  h.mixBytes(set.weights.data(), set.weights.size() * sizeof(double));
  h.mix(static_cast<long long>(set.lattice.size()));
  for (const PupilSample& p : set.lattice) h.mix(p.row).mix(p.col);
  auto mixValues = [&h](const exec::LatticeValues& v) {
    h.mix(static_cast<long long>(v.size()));
    h.mixBytes(v.data(), v.size() * sizeof(v[0]));
  };
  for (const exec::LatticeValues& k : set.kernels) mixValues(k);
  mixValues(set.combined);
  return h.hex();
}

TEST(Tcc, KernelSetBytesAreLocked) {
  // Goldens taken over the pixel-grid-indexed sets, each sample's signed
  // site decoded from its flat index, before kernels were stored on the
  // pupil lattice; the row-stored Jacobi, the source-chunked TCC and the
  // lane-blocked subspace products before that each kept every
  // floating-point operation and its order, so the kernel sets (and with
  // them every mask) must not move by one bit. The clip takes the dense
  // Jacobi path (161 pupil samples), the 2048 nm chip window the truncated
  // subspace solve (657).
  struct Case {
    int clipNm;
    int pixelNm;
    double focusNm;
    const char* digest;
  };
  const Case cases[] = {
      {1024, 4, 0.0, "4dc80fbd51377810"},
      {1024, 4, 25.0, "89d99b550bba86f4"},
      {2048, 16, 0.0, "6b962fa472fae06e"},
      {2048, 16, 25.0, "471ef184e4019150"},
  };
  for (const Case& c : cases) {
    OpticsConfig o;
    o.clipSizeNm = c.clipNm;
    o.pixelNm = c.pixelNm;
    EXPECT_EQ(kernelSetDigest(computeKernelSet(o, c.focusNm)), c.digest)
        << c.clipNm << " nm clip at pixel " << c.pixelNm << ", focus "
        << c.focusNm;
  }
}

/// got and want hold the same bits, entry for entry.
void expectSameBits(const std::vector<std::complex<double>>& got,
                    const std::vector<std::complex<double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  const auto first = std::mismatch(
      got.begin(), got.end(), want.begin(),
      [](const std::complex<double>& a, const std::complex<double>& b) {
        return std::bit_cast<std::uint64_t>(a.real()) ==
                   std::bit_cast<std::uint64_t>(b.real()) &&
               std::bit_cast<std::uint64_t>(a.imag()) ==
                   std::bit_cast<std::uint64_t>(b.imag());
      });
  EXPECT_TRUE(first.first == got.end())
      << "first difference at entry " << (first.first - got.begin()) << ": "
      << *first.first << " vs " << *first.second;
}

TEST(Tcc, ChunkedAssemblyMatchesPerSourceLoopBitForBit) {
  // buildTcc takes the source 64 points at a time and runs each row over
  // the chunk; every entry must still be the per-source loop's sum, bit
  // for bit, in every build the host can run. Clip (n = 161, 1152 source
  // points: 18 whole chunks) and window (n = 657, 4636 points: a partial
  // last chunk) lattices in and out of focus, a Zernike-aberrated lens (a
  // pupil phase without symmetry), and source oversampling 1 and 3 (76
  // and 668 points, each ending in a partial chunk).
  OpticsConfig clip;
  clip.clipSizeNm = 1024;
  clip.pixelNm = 8;
  OpticsConfig window;
  window.clipSizeNm = 2048;
  window.pixelNm = 16;
  OpticsConfig aberrated = clip;
  aberrated.aberrations.comaX = 0.05;
  aberrated.aberrations.astigmatism45 = 0.03;
  aberrated.aberrations.spherical = 0.02;
  OpticsConfig coarse = clip;
  coarse.sourceOversample = 1;
  OpticsConfig fine = clip;
  fine.sourceOversample = 3;
  struct Case {
    const char* name;
    OpticsConfig optics;
    double focusNm;
  };
  const Case cases[] = {
      {"clip", clip, 0.0},          {"clip", clip, 25.0},
      {"window", window, 0.0},      {"window", window, 25.0},
      {"aberrated", aberrated, 0.0}, {"aberrated", aberrated, 25.0},
      {"oversample 1", coarse, 25.0}, {"oversample 3", fine, 0.0},
  };
  for (const Case& c : cases) {
    const auto lattice = pupilLattice(c.optics);
    const auto want = reference::tccPerSource(c.optics, c.focusNm, lattice);
    for (const FftBuild build : reference::runnableBuilds()) {
      SCOPED_TRACE(std::string(c.name) + ", focus " +
                   std::to_string(c.focusNm) + ", " + fftBuildName(build));
      expectSameBits(buildTcc(c.optics, c.focusNm, lattice, build), want);
    }
  }
}

TEST(Tcc, SubspaceSolveMatchesColumnLoopsBitForBit) {
  // The lane-blocked block products on a real TCC, as computeKernelSet
  // asks (24 kernels + 8 guard pairs, a 64-column block), against the
  // column-at-a-time iteration, in every build the host can run. The
  // 2048 nm window takes this path in production; the 1024 nm clip
  // lattice (n = 161) keeps the oracle cheap.
  const OpticsConfig optics = testOptics(8);
  const auto lattice = pupilLattice(optics);
  const int n = static_cast<int>(lattice.size());
  const int k = optics.kernelCount + 8;
  for (const double focus : {0.0, 25.0}) {
    const auto tcc = buildTcc(optics, focus, lattice);
    const HermitianEigenResult want =
        reference::topEigenpairsByColumns(tcc, n, k);
    for (const FftBuild build : reference::runnableBuilds()) {
      SCOPED_TRACE("focus " + std::to_string(focus) + ", " +
                   fftBuildName(build));
      const HermitianEigenResult got =
          topEigenpairsHermitian(tcc, n, k, 600, 1e-11, build);
      ASSERT_EQ(got.eigenvalues.size(), want.eigenvalues.size());
      for (std::size_t j = 0; j < want.eigenvalues.size(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.eigenvalues[j]),
                  std::bit_cast<std::uint64_t>(want.eigenvalues[j]))
            << "eigenvalue " << j;
        expectSameBits(got.eigenvectors[j], want.eigenvectors[j]);
      }
    }
  }
}

TEST(Tcc, SocsImageDoesNotDependOnTheEigenbasis) {
  // Groundwork for swapping the eigensolver. The SOCS image (Eq. 2),
  // sum_k w_k |ifft(h_k .* S)|^2, depends on the kept eigenvalues and
  // the subspace their vectors span, not on each vector's phase or on the
  // basis chosen inside a degenerate eigenspace. So a second 24-kernel
  // set from the subspace solver (another basis, other phases; asked for
  // 8 guard pairs, as computeKernelSet does for chip windows), normalized
  // the way computeKernelSet normalizes, must image B4 like the
  // production set (measured: 1.5e-11 at focus 0, 2.2e-12 at focus 25).
  // Eq. 21's combined kernel sum_k w_k h_k is not
  // basis-invariant: the two sets' combined kernels differ by up to 0.28
  // (focus 0) and 0.61 (focus 25), maximum absolute difference on the
  // unit-DC scale, so it is deliberately not compared here.
  const OpticsConfig optics = testOptics(16);
  const auto lattice = pupilLattice(optics);
  const int n = static_cast<int>(lattice.size());
  const ComplexGrid spectrum = reference::dft2d(
      toComplex(toReal(rasterize(buildTestcaseByName("B4"), optics.pixelNm))),
      /*inverse=*/false);
  auto image = [&](const std::vector<exec::LatticeValues>& kernels,
                   const std::vector<double>& weights) {
    return reference::aerial(spectrum, lattice, kernels.data(),
                             weights.data(),
                             static_cast<int>(kernels.size()), 1.0);
  };
  for (const double focus : {0.0, 25.0}) {
    const KernelSet production = computeKernelSet(optics, focus);
    ASSERT_EQ(production.kernelCount(), optics.kernelCount);
    const HermitianEigenResult eig = topEigenpairsHermitian(
        buildTcc(optics, focus, lattice), n, optics.kernelCount + 8);
    std::vector<exec::LatticeValues> kernels;
    std::vector<double> weights;
    double openFrame = 0.0;
    for (int k = 0; k < optics.kernelCount; ++k) {
      kernels.push_back(eig.eigenvectors[static_cast<std::size_t>(k)]);
      weights.push_back(eig.eigenvalues[static_cast<std::size_t>(k)]);
      openFrame += weights.back() * std::norm(dcValue(lattice, kernels.back()));
    }
    for (double& w : weights) w /= openFrame;

    const RealGrid expected = image(production.kernels, production.weights);
    const RealGrid actual = image(kernels, weights);
    double peak = 0.0;
    double diff = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      peak = std::max(peak, std::fabs(expected.data()[i]));
      diff = std::max(diff, std::fabs(actual.data()[i] - expected.data()[i]));
    }
    ASSERT_GT(peak, 0.1);
    EXPECT_LT(diff / peak, 1e-9) << "focus " << focus;
  }
}

// ------------------------------------------------------------ simulator

TEST(Simulator, EmptyMaskImagesToDark) {
  LithoSimulator& sim = sharedSim();
  const int n = sim.gridSize();
  const RealGrid dark = sim.aerial(RealGrid(n, n, 0.0), nominalCorner());
  EXPECT_NEAR(maxAbs(dark), 0.0, 1e-12);
  EXPECT_EQ(popcount(sim.printBinary(dark)), 0);
}

TEST(Simulator, DoseScalesIntensityLinearly) {
  LithoSimulator& sim = sharedSim();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid mask = toReal(target);
  const RealGrid nominal = sim.aerial(mask, {0.0, 1.0});
  const RealGrid overdosed = sim.aerial(mask, {0.0, 1.25});
  for (std::size_t i = 0; i < nominal.size(); i += 53) {
    EXPECT_NEAR(overdosed.data()[i], 1.25 * nominal.data()[i], 1e-9);
  }
}

TEST(Simulator, DefocusBlursPeak) {
  LithoSimulator& sim = sharedSim();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid mask = toReal(target);
  const RealGrid focused = sim.aerial(mask, {0.0, 1.0});
  const RealGrid defocused = sim.aerial(mask, {25.0, 1.0});
  // Peak intensity of a narrow line drops through focus.
  EXPECT_LT(maxAbs(defocused), maxAbs(focused));
}

TEST(Simulator, SymmetricMaskGivesSymmetricImage) {
  LithoSimulator& sim = sharedSim();
  const int n = sim.gridSize();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid image = sim.aerial(toReal(target), nominalCorner());
  // The rasterized line occupies rows 60..67, i.e. it is symmetric under
  // the reflection r -> (n - 1) - r about row 63.5.
  for (int r = 1; r < n / 2; r += 3) {
    for (int c = 0; c < n; c += 7) {
      EXPECT_NEAR(image(n / 2 + r, c), image(n / 2 - 1 - r, c), 1e-6);
    }
  }
}

TEST(Simulator, LargePadPrintsInteriorOnly) {
  LithoSimulator& sim = sharedSim();
  Layout l;
  l.name = "pad";
  l.sizeNm = 1024;
  l.addRect(256, 256, 768, 768);
  const BitGrid target = rasterize(l, 8);
  const BitGrid print = sim.print(toReal(target), nominalCorner());
  // Interior prints.
  EXPECT_EQ(print(64, 64), 1u);
  // Far outside stays dark.
  EXPECT_EQ(print(8, 8), 0u);
  EXPECT_EQ(print(120, 8), 0u);
}

TEST(Simulator, KernelTruncationApproachesFullSum) {
  LithoSimulator& sim = sharedSim();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid mask = toReal(target);
  const RealGrid full = sim.aerial(mask, nominalCorner(), 0);
  const RealGrid k6 = sim.aerial(mask, nominalCorner(), 6);
  const RealGrid k12 = sim.aerial(mask, nominalCorner(), 12);
  double err6 = 0.0;
  double err12 = 0.0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    err6 += std::fabs(full.data()[i] - k6.data()[i]);
    err12 += std::fabs(full.data()[i] - k12.data()[i]);
  }
  EXPECT_LT(err12, err6);
  EXPECT_LT(err12 / static_cast<double>(full.size()), 1e-3);
}

TEST(Simulator, KernelCacheReturnsSameObject) {
  LithoSimulator& sim = sharedSim();
  const KernelSet& a = sim.kernels(0.0);
  const KernelSet& b = sim.kernels(0.0);
  EXPECT_EQ(&a, &b);
  const KernelSet& c = sim.kernels(25.0);
  EXPECT_NE(&a, &c);
  EXPECT_DOUBLE_EQ(c.focusNm, 25.0);
}

/// Tiny, fast optics for the threaded kernel-cache tests: the 512 nm clip
/// shrinks the pupil lattice (and with it the TCC eigendecomposition) so
/// far that the injected delays dominate the timing even on one core.
OpticsConfig cheapOptics() {
  OpticsConfig o = testOptics(16);
  o.clipSizeNm = 512;
  o.sourceOversample = 2;
  return o;
}

TEST(Simulator, DistinctFocusKernelsComputeConcurrently) {
  // Regression for the kernel cache holding its mutex across
  // computeKernelSet: with one lock per focus entry, two corners
  // with different focus values must overlap their first-use computation.
  // The injected 1.2 s delay fires once per compute; if the computations
  // serialized, wall time would be >= 2.4 s even with zero compute cost.
  // Sleeps overlap even on one core, so this is robust on small machines.
  LithoSimulator sim(cheapOptics());
  failpoint::ScopedFailpoints sfp("litho.kernel_load:delay=1200");
  WallTimer timer;
  std::thread a([&] { (void)sim.kernels(0.0); });
  std::thread b([&] { (void)sim.kernels(25.0); });
  a.join();
  b.join();
  EXPECT_EQ(failpoint::hitCount("litho.kernel_load"), 2);
  EXPECT_LT(timer.seconds(), 2.0);
}

TEST(Simulator, SameFocusComputesExactlyOnceUnderContention) {
  LithoSimulator sim(cheapOptics());
  // The delay widens the race window so the second thread reliably arrives
  // while the first still holds the focus entry.
  failpoint::ScopedFailpoints sfp("litho.kernel_load:delay=100");
  const KernelSet* pa = nullptr;
  const KernelSet* pb = nullptr;
  std::thread a([&] { pa = &sim.kernels(12.5); });
  std::thread b([&] { pb = &sim.kernels(12.5); });
  a.join();
  b.join();
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(pa, pb);
  EXPECT_EQ(failpoint::hitCount("litho.kernel_load"), 1);
}

/// Sets the executor size for one test and restores the default after.
struct ScopedParallelism {
  explicit ScopedParallelism(int workers) { setParallelism(workers); }
  ~ScopedParallelism() { setParallelism(0); }
};

TEST(Simulator, WarmKernelsBuildsFocusSetsConcurrently) {
  // Pool twin of DistinctFocusKernelsComputeConcurrently: warmKernels runs
  // one parallelFor over its focus values, so at two workers the two
  // delayed builds overlap instead of taking >= 2.4 s back to back.
  ScopedParallelism workers(2);
  LithoSimulator sim(cheapOptics());
  failpoint::ScopedFailpoints sfp("litho.kernel_load:delay=1200");
  WallTimer timer;
  sim.warmKernels({0.0, 25.0});
  EXPECT_EQ(failpoint::hitCount("litho.kernel_load"), 2);
  EXPECT_LT(timer.seconds(), 2.0);
}

TEST(Simulator, WarmKernelsRethrowsAFailedBuildAndRetries) {
  ScopedParallelism workers(2);
  LithoSimulator sim(cheapOptics());
  {
    failpoint::ScopedFailpoints sfp("litho.kernel_load:throw@hit=1");
    EXPECT_THROW(sim.warmKernels({0.0, 25.0}), Error);
  }
  // The failed focus left its entry empty, so this call rebuilds it.
  sim.warmKernels({0.0, 25.0});
  LithoSimulator fresh(cheapOptics());
  for (const double focus : {0.0, 25.0}) {
    EXPECT_EQ(kernelSetDigest(sim.kernels(focus)),
              kernelSetDigest(fresh.kernels(focus)))
        << "focus " << focus;
  }
}

TEST(Simulator, PoolTasksSharingOneColdSimulatorComputeEachFocusOnce) {
  // Eight pool tasks race warmKernels (itself a parallelFor) and kernels()
  // on one cold simulator. A task blocks on a focus entry while another
  // thread builds it; no build waits on the pool, so the builder always
  // finishes and this completes at every worker count.
  for (const int count : {1, 2, 4}) {
    ScopedParallelism workers(count);
    LithoSimulator sim(cheapOptics());
    failpoint::ScopedFailpoints sfp("litho.kernel_load:delay=50");
    std::vector<const KernelSet*> seen(8, nullptr);
    TaskGroup group;
    for (std::size_t i = 0; i < seen.size(); ++i) {
      group.run([&sim, &seen, i] {
        sim.warmKernels({0.0, 25.0});
        seen[i] = &sim.kernels(25.0);
      });
    }
    group.wait();
    EXPECT_EQ(failpoint::hitCount("litho.kernel_load"), 2)
        << count << " workers";
    for (const KernelSet* set : seen) EXPECT_EQ(set, seen.front());
  }
}

TEST(Simulator, KernelBuildRunsNoPoolTasks) {
  // A build runs under its focus entry's mutex, so it must not use the
  // executor: a help-first wait could run a sibling task that needs the
  // same focus and re-lock the entry on the same thread. Holds the rule
  // written at LithoSimulator::kernels.
  ScopedParallelism workers(4);
  parallelFor(0, 4, [](std::size_t) {});  // start the pool
  LithoSimulator sim(cheapOptics());
  const std::uint64_t before = poolStats().tasksExecuted;
  (void)sim.kernels(25.0);
  EXPECT_EQ(poolStats().tasksExecuted, before);
}

TEST(Simulator, FftEngineMatchesReferencePath) {
  // The imaging pipeline (band-pruned mask spectrum, SOCS sum on the
  // coarse grid, band-pruned inverse) must reproduce the direct-DFT
  // reference to 1e-10 on the continuous images and bit-exactly on the
  // binary print. The mask spectrum is one value per lattice sample, the
  // pixel-grid spectrum at that sample's site.
  LithoSimulator& sim = sharedSim();
  const int n = sim.gridSize();
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid mask = toReal(target);

  const exec::LatticeValues spectrum = sim.maskSpectrum(mask);
  const RealGrid aerial = sim.aerialFromSpectrum(spectrum, nominalCorner());

  const ComplexGrid refSpectrum =
      reference::dft2d(toComplex(mask), /*inverse=*/false);
  const std::vector<PupilSample> lattice = pupilLattice(sim.optics());
  ASSERT_EQ(spectrum.size(), lattice.size());
  double specDiff = 0.0;
  for (std::size_t s = 0; s < lattice.size(); ++s) {
    const std::complex<double> want =
        refSpectrum((lattice[s].row + n) % n, (lattice[s].col + n) % n);
    specDiff = std::max(specDiff, std::abs(spectrum[s] - want));
  }
  EXPECT_LT(specDiff, 1e-10);

  const KernelSet& set = sim.kernels(0.0);
  EXPECT_EQ(set.lattice, lattice);
  const RealGrid refAerial = reference::aerial(
      refSpectrum, set.lattice, set.kernels.data(), set.weights.data(),
      set.kernelCount(), nominalCorner().dose);
  ASSERT_EQ(refAerial.rows(), n);

  double aerialDiff = 0.0;
  for (std::size_t i = 0; i < aerial.size(); ++i) {
    aerialDiff = std::max(
        aerialDiff, std::fabs(aerial.data()[i] - refAerial.data()[i]));
  }
  EXPECT_LT(aerialDiff, 1e-10);

  const RealGrid zNew = sim.printContinuous(aerial);
  const RealGrid zRef = sim.printContinuous(refAerial);
  for (std::size_t i = 0; i < zNew.size(); ++i) {
    ASSERT_NEAR(zNew.data()[i], zRef.data()[i], 1e-10);
  }
  const BitGrid printNew = sim.printBinary(aerial);
  const BitGrid printRef = sim.printBinary(refAerial);
  for (std::size_t i = 0; i < printNew.size(); ++i) {
    ASSERT_EQ(printNew.data()[i], printRef.data()[i]);
  }
}

TEST(Simulator, MaskShapeValidation) {
  LithoSimulator& sim = sharedSim();
  EXPECT_THROW(sim.aerial(RealGrid(16, 16, 0.0), nominalCorner()),
               InvalidArgument);
}

TEST(Simulator, ResistDiffusionSoftensTheImage) {
  // With acid diffusion the aerial image of a line is blurred: the peak
  // drops and the tails rise; total intensity is conserved.
  OpticsConfig optics;
  optics.pixelNm = 8;
  ResistModel diffusing;
  diffusing.diffusionSigmaNm = 16.0;
  LithoSimulator crisp(optics);
  LithoSimulator soft(optics, diffusing);
  const BitGrid target = rasterize(lineLayout(64), 8);
  const RealGrid a = crisp.aerial(toReal(target), nominalCorner());
  const RealGrid b = soft.aerial(toReal(target), nominalCorner());
  EXPECT_LT(maxAbs(b), maxAbs(a));
  EXPECT_NEAR(sum(b), sum(a), 1e-6 * sum(a));
}

TEST(Simulator, PrintContinuousMatchesSigmoid) {
  LithoSimulator& sim = sharedSim();
  RealGrid aerialImage(sim.gridSize(), sim.gridSize(), 0.3);
  const RealGrid z = sim.printContinuous(aerialImage);
  EXPECT_NEAR(z(0, 0), sim.resist().sigmoid(0.3), 1e-12);
}

}  // namespace
}  // namespace mosaic
