/// Property tests for the FFT engine: invariants (Parseval, round-trip,
/// Hermitian symmetry of real-input spectra), equivalence against the
/// direct DFT of tests/reference.hpp for both builds of the passes (the
/// portable one and AVX2+FMA, each run wherever the CPU can), exact row
/// pruning, the band-pruned real transforms against the full real paths
/// bit for bit, the spectral-vs-spatial blur regression, scratch-pool
/// reuse, and a thread hammer on the lock-free plan cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "math/convolution.hpp"
#include "math/fft.hpp"
#include "math/grid.hpp"
#include "reference.hpp"

namespace mosaic {
namespace {

/// Deterministic xorshift so failures reproduce across platforms.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 2654435761u + 1) {}
  double uniform() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 1000000u) / 1000000.0;
  }
};

ComplexGrid randomComplexGrid(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  ComplexGrid g(rows, cols);
  for (auto& v : g) v = {rng.uniform() - 0.5, rng.uniform() - 0.5};
  return g;
}

RealGrid randomRealGrid(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  RealGrid g(rows, cols);
  for (auto& v : g) v = rng.uniform();
  return g;
}

double maxDiff(const ComplexGrid& a, const ComplexGrid& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

// ----------------------------------------------------------- invariants

TEST(FftEngine, RoundTripIsIdentity) {
  for (const int n : {2, 4, 16, 64, 128}) {
    const ComplexGrid original = randomComplexGrid(n, n, 11u + n);
    ComplexGrid g = original;
    const Fft2d& fft = fft2dFor(n, n);
    fft.forward(g);
    fft.inverse(g);
    EXPECT_LT(maxDiff(g, original), 1e-12) << "size " << n;
  }
}

TEST(FftEngine, RoundTripNonSquare) {
  const ComplexGrid original = randomComplexGrid(32, 128, 7u);
  ComplexGrid g = original;
  const Fft2d& fft = fft2dFor(32, 128);
  fft.forward(g);
  fft.inverse(g);
  EXPECT_LT(maxDiff(g, original), 1e-12);
}

TEST(FftEngine, ParsevalHolds) {
  // sum |x|^2 = (1/N) sum |X|^2 for the unnormalized forward transform.
  const int n = 64;
  const ComplexGrid x = randomComplexGrid(n, n, 23u);
  ComplexGrid spectrum = x;
  fft2dFor(n, n).forward(spectrum);
  double spatial = 0.0;
  double spectral = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    spatial += std::norm(x.data()[i]);
    spectral += std::norm(spectrum.data()[i]);
  }
  spectral /= static_cast<double>(n) * n;
  EXPECT_NEAR(spectral, spatial, 1e-9 * spatial);
}

TEST(FftEngine, RealSpectrumIsHermitian) {
  // X(r, c) = conj(X((R-r)%R, (C-c)%C)) for real input -- this is the
  // symmetry the half-spectrum fast path reconstructs from, so it must
  // hold exactly over the full grid it returns.
  const int rows = 32;
  const int cols = 64;
  const RealGrid x = randomRealGrid(rows, cols, 31u);
  const ComplexGrid spectrum = fft2dFor(rows, cols).forwardReal(x);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const std::complex<double> mirrored =
          std::conj(spectrum((rows - r) % rows, (cols - c) % cols));
      EXPECT_LT(std::abs(spectrum(r, c) - mirrored), 1e-12)
          << "at (" << r << "," << c << ")";
    }
  }
}

// ------------------------------------ equivalence against the direct DFT

TEST(FftEngine, ForwardMatchesReference) {
  for (const int n : {4, 32, 128}) {
    const ComplexGrid x = randomComplexGrid(n, n, 41u + n);
    ComplexGrid fast = x;
    const Fft2d& fft = fft2dFor(n, n);
    fft.forward(fast);
    const ComplexGrid spectrum = reference::dft2d(x, /*inverse=*/false);
    EXPECT_LT(maxDiff(fast, spectrum), 1e-10) << "size " << n;

    fft.inverse(fast);
    EXPECT_LT(maxDiff(fast, reference::dft2d(spectrum, /*inverse=*/true)),
              1e-12)
        << "size " << n;
  }
}

TEST(FftEngine, ForwardRealMatchesReference) {
  for (const auto& [rows, cols] :
       {std::pair{16, 16}, std::pair{8, 64}, std::pair{128, 32}}) {
    const RealGrid x = randomRealGrid(rows, cols, 53u + rows + cols);
    const ComplexGrid fast = fft2dFor(rows, cols).forwardReal(x);
    EXPECT_LT(maxDiff(fast, reference::dft2d(toComplex(x), false)), 1e-10)
        << rows << "x" << cols;
  }
}

TEST(FftEngine, InverseRealMatchesReference) {
  for (const auto& [rows, cols] :
       {std::pair{16, 16}, std::pair{64, 8}, std::pair{32, 128}}) {
    const RealGrid x = randomRealGrid(rows, cols, 67u + rows + cols);
    const Fft2d& fft = fft2dFor(rows, cols);

    // Forward once, inverse through both paths: inverseRealInto only sees
    // the non-redundant half of the spectrum, the reference the full
    // grid; both must reproduce the original real signal.
    ComplexGrid spectrum = fft.forwardReal(x);
    const ComplexGrid direct = reference::dft2d(spectrum, /*inverse=*/true);

    RealGrid fast(rows, cols);
    fft.inverseRealInto(spectrum, fast);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        EXPECT_NEAR(fast(r, c), direct(r, c).real(), 1e-10);
        EXPECT_NEAR(fast(r, c), x(r, c), 1e-10);
      }
    }
  }
}

TEST(FftEngine, PlanMatchesReference1d) {
  const FftPlan plan(256);
  Rng rng(97u);
  std::vector<std::complex<double>> fast(256);
  for (auto& v : fast) v = {rng.uniform() - 0.5, rng.uniform() - 0.5};
  const std::vector<std::complex<double>> spectrum =
      reference::dft(fast, /*inverse=*/false);
  plan.forward(fast.data());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_LT(std::abs(fast[i] - spectrum[i]), 1e-11);
  }
  const std::vector<std::complex<double>> signal =
      reference::dft(fast, /*inverse=*/true);
  plan.inverse(fast.data());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_LT(std::abs(fast[i] - signal[i]), 1e-12);
  }
}

// ----------------------------------------------------- the two builds

// Every build this CPU can run: the portable one, and AVX2+FMA when the
// CPU has it. On an AVX2 host this is the only coverage of what a CPU
// without AVX2 runs.
using reference::runnableBuilds;

const std::pair<int, int> kBuildShapes[] = {{1, 1},   {2, 2},   {4, 4},
                                            {2, 16},  {16, 4},  {64, 32},
                                            {128, 128}};

/// A grid shaped like the SOCS engine's band-limited kernel products:
/// only the rows within rows/8 of row 0 (cyclically) are live, and live
/// rows r % 4 == 2 are zero. Dead rows hold `dead`: zero for the dense
/// transform, NaN to show a pruned one never reads them. Also returns the
/// liveness flags.
ComplexGrid prunableGrid(int rows, int cols, std::vector<std::uint8_t>& live,
                         double dead) {
  ComplexGrid grid = randomComplexGrid(rows, cols, 301u + rows);
  live.assign(static_cast<std::size_t>(rows), 1);
  for (int r = 0; r < rows; ++r) {
    const bool isDead = std::min(r, rows - r) > rows / 8;
    if (isDead || r % 4 == 2) {
      for (int c = 0; c < cols; ++c) {
        grid(r, c) = isDead ? std::complex<double>(dead, dead)
                            : std::complex<double>(0.0, 0.0);
      }
    }
    if (isDead) live[static_cast<std::size_t>(r)] = 0;
  }
  return grid;
}

std::string label(FftBuild build, int rows, int cols) {
  return std::string(fftBuildName(build)) + " " + std::to_string(rows) +
         "x" + std::to_string(cols);
}

TEST(FftBuilds, HostRunsAvx2WhenTheCpuHasIt) {
  EXPECT_STREQ(fftBuildName(hostFftBuild()),
               exec::cpuHasAvx2() ? "avx2" : "portable");
  EXPECT_EQ(fft2dFor(8, 8).build(), hostFftBuild());
  EXPECT_EQ(FftPlan(8).build(), hostFftBuild());
}

TEST(FftBuilds, ComplexMatchesReference) {
  for (const FftBuild build : runnableBuilds()) {
    for (const auto& [rows, cols] : kBuildShapes) {
      const Fft2d fft(rows, cols, build);
      const ComplexGrid x = randomComplexGrid(rows, cols, 211u + rows + cols);
      ComplexGrid fast = x;
      fft.forward(fast);
      const ComplexGrid spectrum = reference::dft2d(x, /*inverse=*/false);
      EXPECT_LT(maxDiff(fast, spectrum), 1e-10) << label(build, rows, cols);
      fft.inverse(fast);
      EXPECT_LT(maxDiff(fast, reference::dft2d(spectrum, /*inverse=*/true)),
                1e-12)
          << label(build, rows, cols);
    }
  }
}

TEST(FftBuilds, RealMatchesReference) {
  for (const FftBuild build : runnableBuilds()) {
    for (const auto& [rows, cols] : kBuildShapes) {
      const Fft2d fft(rows, cols, build);
      const RealGrid x = randomRealGrid(rows, cols, 223u + rows + cols);
      ComplexGrid spectrum = fft.forwardReal(x);
      EXPECT_LT(maxDiff(spectrum, reference::dft2d(toComplex(x), false)),
                1e-10)
          << label(build, rows, cols);
      const ComplexGrid direct = reference::dft2d(spectrum, /*inverse=*/true);
      RealGrid back(rows, cols);
      fft.inverseRealInto(spectrum, back);
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          EXPECT_NEAR(back(r, c), direct(r, c).real(), 1e-10)
              << label(build, rows, cols);
          EXPECT_NEAR(back(r, c), x(r, c), 1e-10) << label(build, rows, cols);
        }
      }
    }
  }
}

TEST(FftBuilds, PrunedTransformMatchesReference) {
  for (const FftBuild build : runnableBuilds()) {
    for (const auto& [rows, cols] : kBuildShapes) {
      const Fft2d fft(rows, cols, build);
      for (const bool invert : {false, true}) {
        std::vector<std::uint8_t> live;
        const ComplexGrid input = prunableGrid(rows, cols, live, 0.0);
        ComplexGrid grid = prunableGrid(rows, cols, live, std::nan(""));
        fft.transform(grid, invert, live.data());
        EXPECT_LT(maxDiff(grid, reference::dft2d(input, invert)),
                  invert ? 1e-12 : 1e-10)
            << label(build, rows, cols) << (invert ? " inverse" : " forward");
      }
    }
  }
}

TEST(FftBuilds, PortableAndAvx2Agree) {
  if (!exec::cpuHasAvx2()) {
    GTEST_SKIP() << "this CPU runs only the portable build";
  }
  for (const auto& [rows, cols] : kBuildShapes) {
    const Fft2d portable(rows, cols, FftBuild::kPortable);
    const Fft2d avx2(rows, cols, FftBuild::kAvx2);
    const ComplexGrid x = randomComplexGrid(rows, cols, 239u + rows + cols);
    ComplexGrid a = x;
    ComplexGrid b = x;
    portable.forward(a);
    avx2.forward(b);
    EXPECT_LT(maxDiff(a, b), 1e-12) << rows << "x" << cols << " forward";
    portable.inverse(a);
    avx2.inverse(b);
    EXPECT_LT(maxDiff(a, b), 1e-12) << rows << "x" << cols << " inverse";

    const RealGrid real = randomRealGrid(rows, cols, 241u + rows + cols);
    ComplexGrid sa = portable.forwardReal(real);
    ComplexGrid sb = avx2.forwardReal(real);
    EXPECT_LT(maxDiff(sa, sb), 1e-12) << rows << "x" << cols << " real";
    RealGrid ra(rows, cols);
    RealGrid rb(rows, cols);
    portable.inverseRealInto(sa, ra);
    avx2.inverseRealInto(sb, rb);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_NEAR(ra.data()[i], rb.data()[i], 1e-12)
          << rows << "x" << cols << " real inverse";
    }

    std::vector<std::uint8_t> liveA;
    std::vector<std::uint8_t> liveB;
    ComplexGrid ga = prunableGrid(rows, cols, liveA, 0.0);
    ComplexGrid gb = prunableGrid(rows, cols, liveB, 0.0);
    portable.transform(ga, /*invert=*/true, liveA.data());
    avx2.transform(gb, /*invert=*/true, liveB.data());
    EXPECT_LT(maxDiff(ga, gb), 1e-12) << rows << "x" << cols << " pruned";
  }
}

TEST(FftBuilds, PruningIsExact) {
  // Zeros transform to zeros: skipping dead rows (whatever they hold)
  // must give exactly the unpruned transform of the zeroed grid, element
  // for element.
  for (const FftBuild build : runnableBuilds()) {
    for (const auto& [rows, cols] : kBuildShapes) {
      const Fft2d fft(rows, cols, build);
      for (const bool invert : {false, true}) {
        std::vector<std::uint8_t> live;
        ComplexGrid pruned = prunableGrid(rows, cols, live, std::nan(""));
        std::vector<std::uint8_t> allLive(static_cast<std::size_t>(rows), 1);
        ComplexGrid dense = prunableGrid(rows, cols, allLive, 0.0);
        allLive.assign(static_cast<std::size_t>(rows), 1);
        fft.transform(pruned, invert, live.data());
        fft.transform(dense, invert, allLive.data());
        EXPECT_TRUE(pruned == dense)
            << label(build, rows, cols) << (invert ? " inverse" : " forward");
      }
    }
  }
}

TEST(FftBuilds, BandTransformsMatchTheRealPathsBitForBit) {
  // The band-pruned real transforms are forwardRealInto and
  // inverseRealInto with the column pass stopped at the band (and, on the
  // inverse, pruned to its rows): the same values on the band, bit for
  // bit, for bands from DC alone to wider than the grid. The inverse takes
  // a real grid's spectrum zeroed outside the band, and the rows of its
  // band grid outside the band hold NaN, which must never be read.
  for (const FftBuild build : runnableBuilds()) {
    for (const auto& [rows, cols] : kBuildShapes) {
      const Fft2d fft(rows, cols, build);
      const bool tiny = rows < 2 || cols < 2;
      const RealGrid x = randomRealGrid(rows, cols, 257u + rows + cols);
      ComplexGrid full(rows, cols);
      fft.forwardRealInto(x, full);
      for (const int band : {0, 1, 3, 8, 1000}) {
        const std::string what =
            label(build, rows, cols) + " band " + std::to_string(band);
        const int width = fft.bandColumns(band);
        const int last = std::min(band, cols / 2);
        ASSERT_GE(width, last + 1) << what;
        ComplexGrid half(rows, width, {std::nan(""), std::nan("")});
        fft.forwardRealBand(x, band, half);
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c <= last; ++c) {
            ASSERT_EQ(half(r, c), full(r, c)) << what << " at " << r << ","
                                              << c;
          }
        }

        auto inBand = [&](int r, int c) {
          return std::min(r, rows - r) <= band &&
                 std::min(c, cols - c) <= band;
        };
        ComplexGrid padded(rows, cols);
        ComplexGrid bandGrid(rows, width, {std::nan(""), std::nan("")});
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < cols; ++c) {
            if (inBand(r, c)) padded(r, c) = full(r, c);
          }
          if (std::min(r, rows - r) > band) continue;
          for (int c = 0; c <= last; ++c) bandGrid(r, c) = full(r, c);
        }
        RealGrid want(rows, cols);
        fft.inverseRealInto(padded, want);
        RealGrid got(rows, cols);
        fft.inverseRealBand(bandGrid, band, got);
        for (std::size_t i = 0; i < got.size(); ++i) {
          // A grid with a side of 1 takes the complex path on both sides;
          // there the band's upper columns are rebuilt from symmetry.
          if (tiny) {
            ASSERT_NEAR(got.data()[i], want.data()[i], 1e-14) << what;
          } else {
            ASSERT_EQ(got.data()[i], want.data()[i]) << what << " at " << i;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------ blur regression

TEST(FftEngine, GaussianBlurMatchesDirectSpatialConvolution) {
  // Pin the spectral blur (and with it the signed frequency convention at
  // the Nyquist bin) against a direct O(N^4) cyclic convolution with the
  // kernel obtained by inverse-transforming the blur multiplier. A wrong
  // Nyquist mapping or a modulo-precedence slip in the direct reference
  // shows up as a mismatch far above this tolerance.
  const int n = 16;
  const double sigma = 1.7;
  const RealGrid signal = randomRealGrid(n, n, 71u);
  const RealGrid blurred = gaussianBlur(signal, sigma);

  constexpr double kPi = 3.14159265358979323846;
  const double k = 2.0 * kPi * kPi * sigma * sigma;
  ComplexGrid multiplier(n, n);
  for (int r = 0; r < n; ++r) {
    const double fr =
        (r < (n + 1) / 2 ? r : r - n) / static_cast<double>(n);
    for (int c = 0; c < n; ++c) {
      const double fc =
          (c < (n + 1) / 2 ? c : c - n) / static_cast<double>(n);
      multiplier(r, c) = std::exp(-k * (fr * fr + fc * fc));
    }
  }
  ComplexGrid kernel = multiplier;
  fft2dFor(n, n).inverse(kernel);

  const ComplexGrid direct =
      reference::directCyclicConvolve(toComplex(signal), kernel);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_NEAR(blurred(r, c), direct(r, c).real(), 1e-10)
          << "at (" << r << "," << c << ")";
      EXPECT_NEAR(direct(r, c).imag(), 0.0, 1e-10);
    }
  }
}

TEST(FftEngine, GaussianBlurPreservesMassAndSmooths) {
  const int n = 64;
  RealGrid impulse(n, n, 0.0);
  impulse(n / 2, n / 2) = 1.0;
  const RealGrid blurred = gaussianBlur(impulse, 2.0);
  double total = 0.0;
  double peak = 0.0;
  for (const double v : blurred) {
    total += v;
    peak = std::max(peak, v);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_LT(peak, 0.25);
  // Cyclic symmetry of the impulse response.
  EXPECT_NEAR(blurred(n / 2 + 3, n / 2), blurred(n / 2 - 3, n / 2), 1e-12);
  EXPECT_NEAR(blurred(n / 2, n / 2 + 3), blurred(n / 2, n / 2 - 3), 1e-12);
}

// ---------------------------------------------------------- plan cache

TEST(FftEngine, PlanCacheHammer) {
  // Many threads resolving a mix of new and existing shapes concurrently:
  // every thread must observe the same plan instance per shape (the cache
  // is append-only and lookups are lock-free).
  const std::vector<std::pair<int, int>> shapes = {
      {8, 8}, {16, 16}, {16, 32}, {32, 16}, {64, 64}, {8, 128}};
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::vector<const Fft2d*>> seen(
      kThreads, std::vector<const Fft2d*>(shapes.size(), nullptr));
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s = 0; s < shapes.size(); ++s) {
          // Stagger first-touch order across threads.
          const std::size_t idx = (s + static_cast<std::size_t>(t)) %
                                  shapes.size();
          const Fft2d& plan =
              fft2dFor(shapes[idx].first, shapes[idx].second);
          if (plan.rows() != shapes[idx].first ||
              plan.cols() != shapes[idx].second) {
            mismatch.store(true);
          }
          if (seen[static_cast<std::size_t>(t)][idx] == nullptr) {
            seen[static_cast<std::size_t>(t)][idx] = &plan;
          } else if (seen[static_cast<std::size_t>(t)][idx] != &plan) {
            mismatch.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  // All threads resolved each shape to one shared instance.
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][s], seen[0][s]);
    }
  }
}

TEST(FftEngine, PlanCacheTransformsAgreeAcrossThreads) {
  // Concurrent transforms through one cached plan must not interfere:
  // each thread round-trips its own grid and checks the result.
  constexpr int kThreads = 6;
  const int n = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ComplexGrid original =
          randomComplexGrid(n, n, 101u + static_cast<std::uint64_t>(t));
      ComplexGrid g = original;
      const Fft2d& fft = fft2dFor(n, n);
      for (int round = 0; round < 20; ++round) {
        fft.forward(g);
        fft.inverse(g);
      }
      if (maxDiff(g, original) > 1e-9) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mosaic
