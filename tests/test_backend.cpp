/// SOCS engine suite: the image and the gradient of math/backend, which
/// run on the intensity's coarse Nyquist grid, must match the direct-DFT,
/// pixel-grid reference (tests/reference.hpp) to 1e-10 in both FFT
/// builds (tiny grids to 1e-14): synthetic kernel lattices that reach the
/// aliasing edge (+-R, +-R) on grids below, at and above the coarse size
/// (down to 1x1, where they wrap), square and non-square, off-nominal dose
/// and the full 24-kernel set, and the real clip and window kernel sets
/// at focus 0 and 25, each used as is at several pitches. Through the
/// simulator, the aerial image, the binary print and maxKernels
/// truncation match the reference built from the real SOCS kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "eval/evaluator.hpp"
#include "eval/pvband.hpp"
#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "litho/tcc.hpp"
#include "math/backend.hpp"
#include "math/convolution.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"
#include "math/scratch.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "reference.hpp"
#include "suite/testcases.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/metrics.hpp"

namespace mosaic {
namespace {

/// Deterministic pseudo-random complex grid.
ComplexGrid randomSpectrum(int rows, int cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  ComplexGrid grid(rows, cols);
  for (auto& v : grid) v = {dist(rng), dist(rng)};
  return grid;
}

RealGrid randomReal(int rows, int cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  RealGrid grid(rows, cols);
  for (auto& v : grid) v = dist(rng);
  return grid;
}

/// A full pixel-grid spectrum read at each lattice sample's site.
exec::LatticeValues sampleLattice(
    const ComplexGrid& spectrum,
    const std::vector<exec::LatticePoint>& lattice) {
  exec::LatticeValues out;
  for (const exec::LatticePoint& p : lattice) {
    out.push_back(spectrum(reference::wrapIndex(p.row, spectrum.rows()),
                           reference::wrapIndex(p.col, spectrum.cols())));
  }
  return out;
}

/// Synthetic band-limited kernel set on one lattice: every signed site
/// with |row|, |col| <= radius (a square, so it reaches the corners
/// (+-R, +-R) where the image's and the gradient product's bands are
/// widest; on a grid of at most 2R samples per axis it wraps, several
/// samples sharing a site). Kernel k takes random values on the whole
/// square when k is even, and on the disc of radius - k % 3 when odd, zero
/// elsewhere, mimicking the pupil support of real kernels.
struct Fixture {
  ComplexGrid spectrum;
  RealGrid gField;
  std::vector<exec::LatticePoint> lattice;
  std::vector<exec::LatticeValues> kernels;
  std::vector<double> weights;

  Fixture(int rows, int cols, int kernelCount, int radius, unsigned seed = 7)
      : spectrum(randomSpectrum(rows, cols, seed)),
        gField(randomReal(rows, cols, seed + 1)) {
    for (int fr = -radius; fr <= radius; ++fr) {
      for (int fc = -radius; fc <= radius; ++fc) lattice.push_back({fr, fc});
    }
    for (int k = 0; k < kernelCount; ++k) {
      const int reach = k % 2 == 0 ? radius : std::max(0, radius - k % 3);
      const int disc = k % 2 == 0 ? 2 * reach * reach : reach * reach;
      std::mt19937 rng(seed + 10 + static_cast<unsigned>(k));
      std::uniform_real_distribution<double> dist(-1.0, 1.0);
      exec::LatticeValues values;
      for (const exec::LatticePoint& p : lattice) {
        const bool inside = p.row * p.row + p.col * p.col <= disc;
        values.push_back(inside ? std::complex<double>{dist(rng), dist(rng)}
                                : std::complex<double>{0.0, 0.0});
      }
      kernels.push_back(std::move(values));
      weights.push_back(1.0 / (1.0 + k));
    }
  }
};

double maxAbsDiff(const RealGrid& a, const RealGrid& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

/// The reference gradient: 2 Re of the inverse DFT of the spectral
/// accumulator of the Eq. 17 chains.
RealGrid referenceGradient(const ComplexGrid& maskSpectrum,
                           const std::vector<exec::LatticePoint>& lattice,
                           const exec::LatticeValues* kernels,
                           const double* weights, int count,
                           const RealGrid& g) {
  const ComplexGrid field = reference::dft2d(
      reference::gradientChains(maskSpectrum, lattice, kernels, weights,
                                count, g),
      /*inverse=*/true);
  RealGrid out(field.rows(), field.cols());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = 2.0 * field.data()[i].real();
  }
  return out;
}

/// Both primitives against the reference on one kernel set, in every FFT
/// build this host runs, to `tol` absolute. The reference reads the full
/// pixel-grid `spectrum`, the engine its lattice samples. The image sums
/// `count` kernels, the gradient the first `gradCount`.
void expectEngineMatchesReference(
    const ComplexGrid& spectrum,
    const std::vector<exec::LatticePoint>& lattice,
    const exec::LatticeValues* kernels, const double* weights, int count,
    int gradCount, double dose, const RealGrid& gField, double tol,
    const std::string& what) {
  const int rows = spectrum.rows();
  const int cols = spectrum.cols();
  const RealGrid refImage =
      reference::aerial(spectrum, lattice, kernels, weights, count, dose);
  const RealGrid refGrad = referenceGradient(spectrum, lattice, kernels,
                                             weights, gradCount, gField);
  const exec::LatticeValues samples = sampleLattice(spectrum, lattice);
  for (const FftBuild build : reference::runnableBuilds()) {
    const Fft2d& fft = fft2dFor(rows, cols, build);
    RealGrid image(rows, cols, -1.0);
    exec::socsImage(fft, lattice, samples, kernels, weights, count, dose,
                    image);
    EXPECT_LT(maxAbsDiff(refImage, image), tol)
        << "image, " << what << ", " << fftBuildName(build) << " build";
    RealGrid grad(rows, cols, -1.0);
    exec::socsGradient(fft, lattice, samples, kernels, weights, gradCount,
                       gField, grad);
    EXPECT_LT(maxAbsDiff(refGrad, grad), tol)
        << "gradient, " << what << ", " << fftBuildName(build) << " build";
  }
}

void expectSyntheticMatches(int rows, int cols, int kernelCount, int radius,
                            double dose = 1.0, double tol = 1e-10) {
  const Fixture fx(rows, cols, kernelCount, radius);
  expectEngineMatchesReference(
      fx.spectrum, fx.lattice, fx.kernels.data(), fx.weights.data(),
      kernelCount, kernelCount, dose, fx.gField, tol,
      std::to_string(rows) + "x" + std::to_string(cols) + " K=" +
          std::to_string(kernelCount) + " R=" + std::to_string(radius) +
          " dose=" + std::to_string(dose));
}

TEST(Engine, KeptNamesResolveToTheOneEngine) {
  ASSERT_NE(exec::findBackend("auto"), nullptr);
  EXPECT_EQ(exec::findBackend("cpu_simd"), exec::findBackend("auto"));
  EXPECT_EQ(exec::findBackend("cpu_scalar"), nullptr);
  EXPECT_EQ(exec::findBackend("gpu_magic"), nullptr);
  exec::setCurrentBackend(*exec::findBackend("auto"));
  EXPECT_STREQ(exec::currentBackend().name(), "cpu_simd");
}

TEST(EngineVsReference, GridsAboveTheCoarseSize) {
  // R = 3 puts the coarse grid at 16 x 16: every grid here is larger on
  // at least one axis, the non-square ones on one axis only.
  expectSyntheticMatches(64, 64, 8, 3);
  expectSyntheticMatches(32, 128, 6, 3);
  expectSyntheticMatches(128, 32, 6, 3);
  expectSyntheticMatches(128, 128, 3, 7);  // the clip's R: 32 x 32 coarse
}

TEST(EngineVsReference, GridsAtAndBelowTheCoarseSize) {
  // R = 3: N = 16. At n = N the coarse grid is the pixel grid; below it
  // the kernel support wraps on the small grid, the plain cyclic model.
  expectSyntheticMatches(16, 16, 5, 3);
  expectSyntheticMatches(8, 8, 5, 3);
  expectSyntheticMatches(16, 64, 4, 3);
  expectSyntheticMatches(64, 8, 4, 3);
}

TEST(EngineVsReference, TinyGrids) {
  // Widths below the AVX2 lane, down to a single pixel, to 1e-14.
  for (const auto& [rows, cols] : {std::pair{1, 1}, std::pair{2, 2},
                                   std::pair{4, 4}, std::pair{2, 16},
                                   std::pair{16, 4}, std::pair{1, 8},
                                   std::pair{8, 1}}) {
    expectSyntheticMatches(rows, cols, 3, 3, 1.1, 1e-14);
    expectSyntheticMatches(rows, cols, 2, 0, 0.9, 1e-14);
  }
}

TEST(EngineVsReference, KernelCounts) {
  for (const int k : {0, 1, 2, 3, 4, 5, 8, 24}) {
    expectSyntheticMatches(64, 64, k, 4);
  }
}

TEST(EngineVsReference, Dose) {
  expectSyntheticMatches(64, 64, 8, 3, 1.07);
  expectSyntheticMatches(64, 64, 8, 3, 0.93);
}

OpticsConfig latticeOptics(int clipNm, int pixelNm) {
  OpticsConfig o;
  o.clipSizeNm = clipNm;
  o.pixelNm = pixelNm;
  return o;
}

TEST(EngineVsReference, RealClipAndWindowLattices) {
  // The production lattices at focus 0 and 25: the 1024-nm clip (R = 7,
  // coarse 32) and the 2048-nm window (R = 14, coarse 64), each above,
  // at and below its coarse size. At 128 nm the clip's +-7 lattice wraps
  // on the 8 x 8 grid (samples share sites), which the reference and the
  // engine both read as the cyclic model. A kernel set holds no pitch, so
  // each set is built once per clip size and focus and used as is at
  // every pitch. The image sums every kernel, the gradient the 9 in-loop
  // ones.
  const Layout clip = buildTestcaseByName("B4");
  for (const auto& [clipNm, pitches] :
       {std::pair{1024, std::vector<int>{8, 32, 64, 128}},
        std::pair{2048, std::vector<int>{16, 32, 128}}}) {
    for (const double focus : {0.0, 25.0}) {
      const KernelSet set =
          computeKernelSet(latticeOptics(clipNm, pitches.front()), focus);
      for (const int pixelNm : pitches) {
        const OpticsConfig optics = latticeOptics(clipNm, pixelNm);
        const int n = optics.gridSize();
        ASSERT_EQ(set.lattice, pupilLattice(optics));
        const RealGrid mask =
            toReal(rasterize(clip, pixelNm * 1024 / clipNm));
        ASSERT_EQ(mask.rows(), n);
        expectEngineMatchesReference(
            reference::dft2d(toComplex(mask), /*inverse=*/false),
            set.lattice, set.kernels.data(), set.weights.data(),
            set.kernelCount(), 9, 1.02,
            randomReal(n, n, 31u + static_cast<unsigned>(n)), 1e-10,
            std::to_string(clipNm) + " nm at " + std::to_string(pixelNm) +
                " nm, focus " + std::to_string(focus));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Through the simulator with real SOCS kernels (coarse 8 nm pixel keeps
// the grid at 128^2).

OpticsConfig smallOptics() {
  OpticsConfig o;
  o.pixelNm = 8;
  return o;
}

ResistModel blurResist(double sigmaNm) {
  ResistModel r;
  r.diffusionSigmaNm = sigmaNm;
  return r;
}

/// Rectangle-plus-bar mask: asymmetric so flipped-index bugs can't cancel.
RealGrid testMask(int n) {
  RealGrid mask(n, n, 0.0);
  for (int r = n / 4; r < 3 * n / 4; ++r) {
    for (int c = n / 3; c < 2 * n / 3; ++c) mask(r, c) = 1.0;
  }
  for (int r = n / 8; r < n / 4; ++r) {
    for (int c = n / 8; c < 7 * n / 8; ++c) mask(r, c) = 1.0;
  }
  return mask;
}

/// The reference aerial image of `mask` at `corner` over the first
/// `count` kernels, from the reference forward DFT of the mask.
RealGrid referenceAerial(const LithoSimulator& sim, const RealGrid& mask,
                         const ProcessCorner& corner, int count) {
  const KernelSet& set = sim.kernels(corner.focusNm);
  return reference::aerial(reference::dft2d(toComplex(mask), false),
                           set.lattice, set.kernels.data(),
                           set.weights.data(), count, corner.dose);
}

TEST(LithoEngine, AerialAndBinaryPrintMatchReference) {
  LithoSimulator sim(smallOptics());
  const int n = sim.gridSize();
  const RealGrid mask = testMask(n);
  const ProcessCorner corner{25.0, 1.02};
  const RealGrid refAerial = referenceAerial(
      sim, mask, corner, sim.kernels(corner.focusNm).kernelCount());
  const BitGrid refPrint = sim.printBinary(refAerial);
  const RealGrid gotAerial = sim.aerial(mask, corner);
  const BitGrid gotPrint = sim.printBinary(gotAerial);
  EXPECT_LT(maxAbsDiff(refAerial, gotAerial), 1e-10);
  EXPECT_EQ(refPrint, gotPrint);
}

TEST(LithoEngine, MaxKernelsTruncation) {
  LithoSimulator sim(smallOptics());
  const RealGrid mask = testMask(sim.gridSize());
  const exec::LatticeValues spectrum = sim.maskSpectrum(mask);
  const ProcessCorner corner{0.0, 0.98};
  const int setSize = sim.kernels(corner.focusNm).kernelCount();
  for (const int maxK : {1, 3, 24, 999}) {
    const RealGrid ref =
        referenceAerial(sim, mask, corner, std::min(maxK, setSize));
    const RealGrid got = sim.aerialFromSpectrum(spectrum, corner, maxK);
    EXPECT_LT(maxAbsDiff(ref, got), 1e-10) << "maxKernels=" << maxK;
  }
  // A request beyond the set size clamps to the full sum (bit-identical
  // to maxKernels = 0).
  const RealGrid clamped = sim.aerialFromSpectrum(spectrum, corner, 999);
  const RealGrid full = sim.aerialFromSpectrum(spectrum, corner, 0);
  EXPECT_EQ(maxAbsDiff(clamped, full), 0.0);
}

// Regression: when an off-nominal dose combines with a resist
// blur, each must apply exactly once. Double-dose would make the aerial
// scale quadratically with dose; double-blur (or dose inside the blur)
// would break agreement with the manually assembled blur(dose * raw).
TEST(LithoEngine, DoseAndBlurApplyExactlyOnce) {
  const double sigmaNm = 20.0;
  LithoSimulator plainSim(smallOptics());
  LithoSimulator blurSim(smallOptics(), blurResist(sigmaNm));
  const int n = plainSim.gridSize();
  const RealGrid mask = testMask(n);
  const ProcessCorner corner{25.0, 1.05};
  const exec::LatticeValues spectrum = plainSim.maskSpectrum(mask);

  // Dose linearity: I(dose) == dose * I(1) elementwise (blur is linear,
  // so this holds with the blur epilogue active too).
  const RealGrid unit =
      blurSim.aerialFromSpectrum(spectrum, {corner.focusNm, 1.0});
  const RealGrid dosed = blurSim.aerialFromSpectrum(spectrum, corner);
  RealGrid scaledUnit = unit;
  for (auto& v : scaledUnit) v *= corner.dose;
  EXPECT_LT(maxAbsDiff(dosed, scaledUnit), 1e-10)
      << "dose applied more than once";

  // Blur applied exactly once, after the dose: the blurred-sim output
  // must match a single manual gaussianBlur of the unblurred aerial.
  const RealGrid raw = plainSim.aerialFromSpectrum(spectrum, corner);
  const RealGrid manual =
      gaussianBlur(raw, sigmaNm / plainSim.optics().pixelNm);
  EXPECT_LT(maxAbsDiff(dosed, manual), 1e-10) << "blur/dose epilogue mismatch";
}

// Regression: one full evaluation (nominal print + EPE + PV
// band over all corners) pays exactly one forward mask FFT.
TEST(LithoEngine, OneMaskSpectrumPerEvaluation) {
  LithoSimulator sim(smallOptics());
  const RealGrid mask = testMask(sim.gridSize());
  const BitGrid target = thresholdGrid(mask, 0.5);
  telemetry::Counter& spectra =
      telemetry::metrics().counter("litho.mask_spectrum");
  const std::uint64_t before = spectra.value();
  (void)evaluateMask(sim, mask, target, 0.0);
  EXPECT_EQ(spectra.value() - before, 1u);
}

// The imaging step hands every index the image aerialFromSpectrum makes
// for its condition, bit for bit, summing a repeated condition once.
TEST(LithoEngine, ImageConditionsSumsEachDistinctConditionOnce) {
  LithoSimulator sim(smallOptics());
  const exec::LatticeValues spectrum =
      sim.maskSpectrum(testMask(sim.gridSize()));
  const std::vector<ProcessCorner> conditions = {
      {0.0, 1.0}, {25.0, 0.98}, {0.0, 1.0}, {0.0, 1.02}, {25.0, 0.98}};
  for (const int maxK : {0, 5}) {
    std::vector<RealGrid> expected;
    for (const ProcessCorner& c : conditions) {
      expected.push_back(sim.aerialFromSpectrum(spectrum, c, maxK));
    }
    telemetry::Counter& sums = telemetry::metrics().counter("litho.aerial");
    const std::uint64_t before = sums.value();
    std::mutex mu;
    std::vector<int> calls(conditions.size(), 0);
    std::vector<double> diff(conditions.size(), -1.0);
    setParallelism(4);
    sim.imageConditions(spectrum, conditions, maxK,
                        [&](std::size_t i, const RealGrid& image) {
                          const double d = maxAbsDiff(image, expected[i]);
                          std::lock_guard<std::mutex> lock(mu);
                          ++calls[i];
                          diff[i] = d;
                        });
    setParallelism(0);
    EXPECT_EQ(sums.value() - before, 3u) << "maxKernels=" << maxK;
    for (std::size_t i = 0; i < conditions.size(); ++i) {
      EXPECT_EQ(calls[i], 1) << "condition " << i;
      EXPECT_EQ(diff[i], 0.0) << "condition " << i;
    }
  }
}

// One SOCS sum per distinct imaging condition: the objective's four
// conditions (nominal + three PV corners, each at dose 1) cover two foci,
// and the evaluation's nominal print shares the (0 nm, x1.00) corner's sum.
TEST(LithoEngine, OneSocsSumPerDistinctCondition) {
  LithoSimulator sim(smallOptics());
  const RealGrid mask = testMask(sim.gridSize());
  const BitGrid target = thresholdGrid(mask, 0.5);
  telemetry::Counter& sums = telemetry::metrics().counter("litho.aerial");
  auto sumsDuring = [&](const auto& work) {
    const std::uint64_t before = sums.value();
    work();
    return sums.value() - before;
  };
  const IltObjective objective(
      sim, target,
      defaultIltConfig(OpcMethod::kMosaicFast, sim.optics().pixelNm));
  EXPECT_EQ(sumsDuring([&] { (void)objective.evaluate(mask, true); }), 2u);
  EXPECT_EQ(sumsDuring([&] { (void)evaluateMask(sim, mask, target, 0.0); }),
            6u);
  EXPECT_EQ(sumsDuring([&] {
              (void)computePvBand(sim, mask, evaluationCorners());
            }),
            6u);
}

TEST(LithoEngine, PvBandSpectrumOverloadIdentical) {
  LithoSimulator sim(smallOptics());
  const RealGrid mask = testMask(sim.gridSize());
  const std::vector<ProcessCorner> corners = evaluationCorners();
  const PvBandResult fromMask = computePvBand(sim, mask, corners);
  const PvBandResult fromSpectrum =
      computePvBand(sim, sim.maskSpectrum(mask), corners);
  EXPECT_EQ(fromMask.bandPixels, fromSpectrum.bandPixels);
  EXPECT_EQ(fromMask.band, fromSpectrum.band);
  EXPECT_EQ(fromMask.outer, fromSpectrum.outer);
  EXPECT_EQ(fromMask.inner, fromSpectrum.inner);
}

// The resident-bytes accounting follows the pool through
// lease, release, and clearThreadPool, and the gauge mirrors it.
TEST(ScratchPool, ResidentBytesTracksPoolAndClear) {
  scratch::clearThreadPool();
  const long long base = scratch::residentBytes();
  {
    scratch::RealLease lease(32, 32);
    lease.grid().fill(1.0);
  }  // released back to this thread's free list
  const long long pooled = scratch::residentBytes();
  EXPECT_GE(pooled - base, static_cast<long long>(32 * 32 * sizeof(double)));
  EXPECT_DOUBLE_EQ(
      telemetry::metrics().gauge("scratch.resident_bytes").value(),
      static_cast<double>(pooled));
  scratch::clearThreadPool();
  EXPECT_EQ(scratch::residentBytes(), base);
  EXPECT_DOUBLE_EQ(
      telemetry::metrics().gauge("scratch.resident_bytes").value(),
      static_cast<double>(base));
}

}  // namespace
}  // namespace mosaic
