/// Tests for polygon decomposition and GLP layout I/O.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "geometry/polygon.hpp"
#include "geometry/raster.hpp"
#include "io/glp.hpp"
#include "litho/kernel_cache.hpp"
#include "litho/simulator.hpp"
#include "litho/tcc.hpp"
#include "math/stats.hpp"
#include "opc/optimizer.hpp"
#include "suite/testcases.hpp"
#include "support/binary_io.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/hash.hpp"

namespace mosaic {
namespace {

// -------------------------------------------------------------- polygon

TEST(Polygon, RectanglePolygonRoundTrip) {
  const RectNm rect{10, 20, 50, 60};
  const PolygonNm poly = toPolygon(rect);
  EXPECT_EQ(poly.vertexCount(), 4u);
  EXPECT_EQ(poly.area(), rect.area());
  const auto rects = decomposeRectilinear(poly);
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], rect);
}

TEST(Polygon, SignedAreaOrientation) {
  PolygonNm ccw;
  ccw.vertices = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  EXPECT_EQ(ccw.signedArea(), 16);
  PolygonNm cw;
  cw.vertices = {{0, 0}, {0, 4}, {4, 4}, {4, 0}};
  EXPECT_EQ(cw.signedArea(), -16);
  EXPECT_EQ(cw.area(), 16);
}

TEST(Polygon, LShapeDecomposesToTwoRects) {
  // L-shape: 8x8 square minus its top-right 4x4 quadrant.
  PolygonNm poly;
  poly.vertices = {{0, 0}, {8, 0}, {8, 4}, {4, 4}, {4, 8}, {0, 8}};
  const auto rects = decomposeRectilinear(poly);
  long long area = 0;
  for (const auto& r : rects) area += r.area();
  EXPECT_EQ(area, poly.area());
  EXPECT_EQ(area, 48);
  EXPECT_LE(rects.size(), 2u);
}

TEST(Polygon, StaircaseDecomposition) {
  PolygonNm poly;
  poly.vertices = {{0, 0}, {12, 0}, {12, 4}, {8, 4},
                   {8, 8}, {4, 8},  {4, 12}, {0, 12}};
  const auto rects = decomposeRectilinear(poly);
  long long area = 0;
  for (const auto& r : rects) {
    area += r.area();
    for (const auto& other : rects) {
      if (&r != &other) {
        EXPECT_FALSE(r.intersects(other));
      }
    }
  }
  EXPECT_EQ(area, poly.area());
}

TEST(Polygon, UShapeDecomposition) {
  // U-shape: three slabs; inner bay must remain uncovered.
  PolygonNm poly;
  poly.vertices = {{0, 0}, {12, 0}, {12, 10}, {8, 10},
                   {8, 4}, {4, 4},  {4, 10},  {0, 10}};
  const auto rects = decomposeRectilinear(poly);
  long long area = 0;
  for (const auto& r : rects) area += r.area();
  EXPECT_EQ(area, poly.area());
  // The bay center (6, 7) is outside every rect.
  for (const auto& r : rects) EXPECT_FALSE(r.contains(6.0, 7.0));
}

TEST(Polygon, ValidationErrors) {
  PolygonNm tooFew;
  tooFew.vertices = {{0, 0}, {1, 0}, {1, 1}};
  EXPECT_THROW(tooFew.validate(), InvalidArgument);

  PolygonNm diagonal;
  diagonal.vertices = {{0, 0}, {4, 4}, {4, 0}, {0, 4}};
  EXPECT_THROW(diagonal.validate(), InvalidArgument);

  PolygonNm degenerateEdge;
  degenerateEdge.vertices = {{0, 0}, {0, 0}, {4, 4}, {0, 4}};
  EXPECT_THROW(degenerateEdge.validate(), InvalidArgument);
}

// ------------------------------------------------------------------ glp

TEST(Glp, ParsesRectRecords) {
  std::istringstream in(
      "BEGIN\n"
      "EQUIV  1  1000  MICRON  +X,+Y\n"
      "CNAME clip\n"
      "LEVEL M1\n"
      "   RECT N M1 100 200 300 400\n"
      "   RECT N M1 500 200 700 400\n"
      "ENDMSG\n");
  GlpReadOptions opts;
  opts.recenter = false;
  const Layout layout = readGlp(in, "clip", opts);
  ASSERT_EQ(layout.rects.size(), 2u);
  EXPECT_EQ(layout.rects[0], (RectNm{100, 200, 300, 400}));
  EXPECT_EQ(layout.patternArea(), 2 * 200 * 200);
}

TEST(Glp, ParsesPolygonRecords) {
  std::istringstream in(
      "BEGIN\n"
      "PGON N M1 100 100 300 100 300 200\n"
      "  200 200 200 300 100 300\n"
      "ENDMSG\n");
  GlpReadOptions opts;
  opts.recenter = false;
  const Layout layout = readGlp(in, "pgon", opts);
  EXPECT_GE(layout.rects.size(), 2u);
  EXPECT_EQ(layout.patternArea(), 200 * 100 + 100 * 100);
}

TEST(Glp, RecentersPattern) {
  std::istringstream in("RECT N M1 10000 20000 10100 20100\n");
  GlpReadOptions opts;
  opts.clipSizeNm = 1024;
  opts.recenter = true;
  const Layout layout = readGlp(in, "far", opts);
  ASSERT_EQ(layout.rects.size(), 1u);
  const RectNm& r = layout.rects[0];
  EXPECT_EQ(r.width(), 100);
  // Centered: equal margins.
  EXPECT_EQ(r.x0, (1024 - 100) / 2);
  EXPECT_EQ(r.y0, (1024 - 100) / 2);
}

TEST(Glp, RejectsMalformedInput) {
  {
    std::istringstream in("RECT N M1 1 2 3\n");  // missing coordinate
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("FOO bar\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("PGON N M1 0 0 4 0 4\n");  // odd coordinates
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    // Pattern larger than the clip window.
    std::istringstream in("RECT N M1 0 0 5000 5000\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
}

TEST(Glp, RejectsCoordinateOverflow) {
  {
    // Does not fit in an int at all.
    std::istringstream in("RECT N M1 0 0 99999999999999999999 100\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    // Fits in an int but is beyond any plausible layout extent (> 1 m).
    std::istringstream in("RECT N M1 0 0 2000000000 100\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
}

TEST(Glp, RejectsZeroAndNegativeAreaRects) {
  {
    std::istringstream in("RECT N M1 100 100 100 200\n");  // zero width
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("RECT N M1 100 100 200 100\n");  // zero height
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("RECT N M1 300 300 200 400\n");  // inverted x
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
}

TEST(Glp, RejectsTruncatedRecords) {
  {
    std::istringstream in("BEGIN\nEQUIV 1 1000\nENDMSG\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    std::istringstream in("BEGIN\nCNAME\nENDMSG\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
  {
    // PGON that ends before forming a closed polygon (< 4 vertices).
    std::istringstream in("PGON N M1 0 0 100 0\n");
    EXPECT_THROW(readGlp(in, "x"), InvalidArgument);
  }
}

TEST(Glp, ParseFailpointInjectsThrow) {
  failpoint::ScopedFailpoints sfp("io.glp.parse:throw");
  std::istringstream in("RECT N M1 100 200 300 400\n");
  EXPECT_THROW(readGlp(in, "x"), Error);
}

TEST(Glp, WriteReadRoundTripPreservesGeometry) {
  const Layout original = buildTestcase(6);
  std::ostringstream out;
  writeGlp(out, original);
  std::istringstream in(out.str());
  GlpReadOptions opts;
  opts.recenter = false;
  const Layout loaded = readGlp(in, original.name, opts);
  EXPECT_EQ(loaded.patternArea(), original.patternArea());
  // Rasters must be identical.
  EXPECT_EQ(rasterize(loaded, 4), rasterize(original, 4));
}

class GlpSuiteRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(GlpSuiteRoundTrip, FileRoundTrip) {
  const Layout original = buildTestcase(GetParam());
  const auto path = std::filesystem::temp_directory_path() /
                    ("mosaic_glp_" + original.name + ".glp");
  writeGlpFile(path.string(), original);
  GlpReadOptions opts;
  opts.recenter = false;
  const Layout loaded = readGlpFile(path.string(), opts);
  EXPECT_EQ(loaded.name, "mosaic_glp_" + original.name);  // file stem
  EXPECT_EQ(rasterize(loaded, 8), rasterize(original, 8));
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(B, GlpSuiteRoundTrip, ::testing::Range(1, 11));

TEST(Glp, MissingFileThrows) {
  EXPECT_THROW(readGlpFile("/nonexistent/dir/x.glp"), InvalidArgument);
}

// ----------------------------------------------------------- kernel cache

/// True when two kernel sets agree in every byte the cache stores.
bool sameKernelBytes(const KernelSet& a, const KernelSet& b) {
  auto sameBytes = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(),
                                     x.size() * sizeof(x[0])) == 0);
  };
  if (std::memcmp(&a.focusNm, &b.focusNm, sizeof a.focusNm) != 0 ||
      a.lattice != b.lattice || !sameBytes(a.weights, b.weights) ||
      a.kernels.size() != b.kernels.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.kernels.size(); ++k) {
    if (!sameBytes(a.kernels[k], b.kernels[k])) return false;
  }
  return sameBytes(a.combined, b.combined);
}

std::string readFileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void writeFileBytes(const std::filesystem::path& path,
                    const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(KernelCache, RoundTripPreservesEverything) {
  OpticsConfig optics;
  optics.pixelNm = 16;  // small grid keeps the TCC build fast
  LithoSimulator sim(optics);
  const KernelSet& original = sim.kernels(25.0);

  const auto path = std::filesystem::temp_directory_path() /
                    kernelCacheName(optics, original.focusNm);
  saveKernelSet(path.string(), original);
  const KernelSet loaded = loadKernelSet(path.string());
  EXPECT_EQ(loaded.lattice, pupilLattice(optics));
  EXPECT_TRUE(sameKernelBytes(loaded, original));
  std::filesystem::remove(path);
}

TEST(KernelCache, RejectsGarbageAndMissing) {
  EXPECT_THROW(loadKernelSet("/nonexistent/kernels.bin"), InvalidArgument);
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_bad_kernels.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a kernel cache";
  }
  EXPECT_THROW(loadKernelSet(path.string()), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(KernelCache, TornOrPaddedFileIsRecomputedAndRewritten) {
  // A truncated file (a writer killed mid-file) and one with trailing
  // bytes must each load as a miss, be recomputed, and be republished
  // byte-identical through the temp-file-and-rename path, leaving only
  // the cache file itself in the directory.
  OpticsConfig optics;
  optics.pixelNm = 16;
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_kcache_torn";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto file = dir / kernelCacheName(optics, 0.0);
  auto listDir = [&dir] {
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      names.push_back(e.path().filename().string());
    }
    return names;
  };
  {
    LithoSimulator sim(optics);
    sim.setKernelCacheDir(dir.string());
    (void)sim.kernels(0.0);
  }
  const std::string good = readFileBytes(file);
  ASSERT_GT(good.size(), 1000u);
  EXPECT_EQ(listDir(), std::vector<std::string>{file.filename().string()});

  const std::string damaged[] = {good.substr(0, good.size() / 2),
                                 good + "trailing garbage"};
  for (const std::string& bytes : damaged) {
    writeFileBytes(file, bytes);
    EXPECT_THROW(loadKernelSet(file.string()), InvalidArgument);
    LithoSimulator sim(optics);
    sim.setKernelCacheDir(dir.string());
    (void)sim.kernels(0.0);
    EXPECT_EQ(readFileBytes(file), good) << bytes.size() << "-byte file";
    EXPECT_EQ(listDir(), std::vector<std::string>{file.filename().string()});
  }
  std::filesystem::remove_all(dir);
}

TEST(KernelCache, ForeignLatticeOrFlippedValueByteIsRecomputedAndRewritten) {
  // Two files of the right size that must not be served: one whose
  // lattice names other sites for the same number of samples (well formed,
  // with a valid digest), and one with a single value byte flipped. Each
  // must load as a miss, be recomputed and be republished byte-identical.
  OpticsConfig optics;
  optics.pixelNm = 16;
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_kcache_foreign";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto file = dir / kernelCacheName(optics, 0.0);
  {
    LithoSimulator sim(optics);
    sim.setKernelCacheDir(dir.string());
    (void)sim.kernels(0.0);
  }
  const std::string good = readFileBytes(file);

  KernelSet foreign = loadKernelSet(file.string());
  foreign.lattice.front().row = -foreign.lattice.front().row;
  saveKernelSet(file.string(), foreign);
  ASSERT_EQ(loadKernelSet(file.string()).lattice, foreign.lattice);
  const std::string foreignBytes = readFileBytes(file);
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x10;  // inside the kernel values
  writeFileBytes(file, flipped);
  EXPECT_THROW(loadKernelSet(file.string()), FormatError);

  for (const std::string& bytes : {foreignBytes, flipped}) {
    writeFileBytes(file, bytes);
    LithoSimulator sim(optics);
    sim.setKernelCacheDir(dir.string());
    EXPECT_EQ(sim.kernels(0.0).lattice, pupilLattice(optics));
    EXPECT_EQ(readFileBytes(file), good) << bytes.size() << "-byte file";
  }
  std::filesystem::remove_all(dir);
}

TEST(KernelCache, DeclaredLatticeBeyondTheFileIsAFormatError) {
  // A lattice of 2^30 samples declared in a 60-byte file, under a valid
  // payload digest: the loader grows its vectors only as bytes arrive, so
  // this is a truncation, not a 20-GiB allocation.
  std::ostringstream payload;
  BinaryWriter out(payload);
  out.put(0.0);
  out.put(std::uint32_t{1} << 30);
  for (int i = 0; i < 4; ++i) {
    out.put<std::int32_t>(i);
    out.put<std::int32_t>(-i);
  }
  const std::string bytes = payload.str();
  std::ostringstream file;
  BinaryWriter header(file);
  header.put(std::uint32_t{0x4d4f534bu});
  header.put(std::uint32_t{2});
  file << bytes;
  header.put(fnv1a(bytes.data(), bytes.size()));
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_kcache_oversized.bin";
  writeFileBytes(path, file.str());
  EXPECT_THROW(loadKernelSet(path.string()), FormatError);
  std::filesystem::remove(path);
}

TEST(KernelCache, OneFilePerOpticsAndFocusAtEveryPitch) {
  // A kernel set holds no pitch: a 4-nm and an 8-nm simulator of one
  // clip share a cache directory through the same two files, and hold
  // the same sets bit for bit.
  OpticsConfig fine;
  fine.pixelNm = 4;
  OpticsConfig coarse = fine;
  coarse.pixelNm = 8;
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_kcache_pitch";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  LithoSimulator fineSim(fine);
  fineSim.setKernelCacheDir(dir.string());
  fineSim.warmKernels({0.0, 25.0});
  LithoSimulator coarseSim(coarse);
  coarseSim.setKernelCacheDir(dir.string());
  coarseSim.warmKernels({0.0, 25.0});
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            2);
  for (const double focus : {0.0, 25.0}) {
    EXPECT_TRUE(sameKernelBytes(fineSim.kernels(focus),
                                coarseSim.kernels(focus)))
        << "focus " << focus;
  }
  std::filesystem::remove_all(dir);
}

TEST(KernelCache, OpticsAwareNameSeparatesPupilAndSourceSettings) {
  OpticsConfig base;
  base.pixelNm = 16;
  const std::string name = kernelCacheName(base, 25.0);
  EXPECT_EQ(name.find("kernels_f250_o"), 0u) << name;
  EXPECT_EQ(name, kernelCacheName(base, 25.0)) << "name must be deterministic";
  // No kernel depends on the pitch, so the name does not either.
  OpticsConfig finer = base;
  finer.pixelNm = 4;
  EXPECT_EQ(kernelCacheName(finer, 25.0), name);

  // Every optical knob must change the name, so a cache directory can
  // never serve kernels computed under different settings.
  OpticsConfig na = base;
  na.na = 1.2;
  EXPECT_NE(kernelCacheName(na, 25.0), name);
  OpticsConfig source = base;
  source.sigmaOuter = 0.8;
  EXPECT_NE(kernelCacheName(source, 25.0), name);
  OpticsConfig aberrated = base;
  aberrated.aberrations.comaX = 0.02;
  EXPECT_NE(kernelCacheName(aberrated, 25.0), name);
  OpticsConfig truncated = base;
  truncated.kernelCount = 12;
  EXPECT_NE(kernelCacheName(truncated, 25.0), name);

  // ...while grid-equivalent but differently-expressed geometry matches.
  EXPECT_EQ(opticsParameterHash(base), opticsParameterHash(base));
  EXPECT_EQ(kernelCacheName(base, -25.0), "kernels_f-250_o" +
                                              opticsParameterHash(base) +
                                              ".bin");
}

TEST(KernelCache, SavingEmptySetThrows) {
  KernelSet empty;
  EXPECT_THROW(saveKernelSet("/tmp/should_not_matter.bin", empty),
               InvalidArgument);
}

TEST(KernelCache, SimulatorUsesTheDiskCache) {
  OpticsConfig optics;
  optics.pixelNm = 16;
  const auto dir = std::filesystem::temp_directory_path() / "mosaic_kcache";
  std::filesystem::create_directories(dir);
  const auto file = dir / kernelCacheName(optics, 0.0);
  std::filesystem::remove(file);

  LithoSimulator first(optics);
  first.setKernelCacheDir(dir.string());
  const KernelSet& computed = first.kernels(0.0);
  EXPECT_TRUE(std::filesystem::exists(file)) << "cache file not written";

  LithoSimulator second(optics);
  second.setKernelCacheDir(dir.string());
  const KernelSet& loaded = second.kernels(0.0);
  ASSERT_EQ(loaded.kernels.size(), computed.kernels.size());
  // Aerial images from computed vs loaded kernels must agree exactly.
  RealGrid mask(64, 64, 0.0);
  for (int r = 24; r < 40; ++r) {
    for (int c = 16; c < 48; ++c) mask(r, c) = 1.0;
  }
  const RealGrid a = first.aerial(mask, nominalCorner());
  const RealGrid b = second.aerial(mask, nominalCorner());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(KernelCache, ClipAndChipWindowSharingADirectoryKeepTheirOwnSets) {
  // A 1024 nm clip at 8 nm and a 2048 nm chip window at 16 nm share the
  // 128^2 grid, but not the pupil lattice (161 against 657 samples). Two
  // chip runs sharing --kernel-cache can hold both; neither may be
  // served the other's kernels.
  OpticsConfig clip;
  clip.clipSizeNm = 1024;
  clip.pixelNm = 8;
  OpticsConfig window;
  window.clipSizeNm = 2048;
  window.pixelNm = 16;
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_kcache_shared";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  KernelSet windowSet;
  {
    LithoSimulator sim(window);  // the directory is empty: it computes
    sim.setKernelCacheDir(dir.string());
    windowSet = sim.kernels(0.0);
  }
  LithoSimulator clipSim(clip);
  clipSim.setKernelCacheDir(dir.string());
  EXPECT_TRUE(sameKernelBytes(clipSim.kernels(0.0), computeKernelSet(clip, 0.0)));
  LithoSimulator windowSim(window);
  windowSim.setKernelCacheDir(dir.string());
  EXPECT_TRUE(sameKernelBytes(windowSim.kernels(0.0), windowSet));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            2);
  std::filesystem::remove_all(dir);
}

TEST(KernelCache, FocusRoundedOntoAnotherSetsNameIsRecomputed) {
  // The name keeps the focus to 0.1 nm, so 0.0 and 0.04 nm share a file;
  // each request must still get the set for its own focus.
  OpticsConfig optics;
  optics.pixelNm = 16;
  ASSERT_EQ(kernelCacheName(optics, 0.0), kernelCacheName(optics, 0.04));
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_kcache_focus";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const double focus : {0.0, 0.04, 0.0}) {
    LithoSimulator sim(optics);
    sim.setKernelCacheDir(dir.string());
    EXPECT_EQ(sim.kernels(focus).focusNm, focus);
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- binary formats

TEST(BinaryFormats, FileBytesArePinned) {
  // One checkpoint, one kernel-cache file and one pattern-store entry from
  // fixed inputs: their FNV-1a digests pin every byte of the three binary
  // formats, so a change to the shared reader/writer that moves a byte
  // fails here instead of orphaning the files already on disk.
  const auto dir =
      std::filesystem::temp_directory_path() / "mosaic_binary_formats";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto digestOf = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    const std::string bytes(std::istreambuf_iterator<char>(in), {});
    return Fnv1a::hashHex(fnv1a(bytes.data(), bytes.size()));
  };
  auto ramp = [](int rows, int cols, double scale) {
    RealGrid g(rows, cols);
    for (std::size_t i = 0; i < g.size(); ++i) {
      g.data()[i] = scale * static_cast<double>(i) - 0.5;
    }
    return g;
  };

  OptimizerCheckpoint ckpt;
  ckpt.iteration = 7;
  ckpt.step = 0.125;
  ckpt.previousValue = 2.5;
  ckpt.sinceImprovement = 1;
  ckpt.bestObjective = 1.75;
  ckpt.bestIteration = 6;
  ckpt.recoveries = 1;
  ckpt.params = ramp(3, 4, 0.1);
  ckpt.bestMask = ramp(3, 4, 0.2);
  ckpt.adamM = ramp(3, 4, 0.3);
  ckpt.adamV = ramp(3, 4, 0.4);
  IterationRecord record;
  record.iteration = 6;
  record.objective = 1.75;
  record.targetTerm = 1.5;
  record.pvbTerm = 0.25;
  record.rmsGradient = 0.0625;
  record.stepSize = 0.125;
  record.wallMs = 3.5;
  record.improved = true;
  ckpt.history = {record, record};
  ckpt.history[1].iteration = 7;
  ckpt.history[1].jumped = true;
  ckpt.history[1].recovered = true;
  saveOptimizerCheckpoint((dir / "state.ckpt").string(), ckpt);
  EXPECT_EQ(digestOf(dir / "state.ckpt"), "bf3bff7444bf9a91");

  KernelSet set;
  set.focusNm = 25.0;
  set.lattice = {{0, 0}, {0, 1}, {-1, -1}};
  set.weights = {0.75, 0.25};
  for (int k = 0; k < 2; ++k) {
    set.kernels.push_back({{1.0, 0.5 * k}, {-0.25, 0.125}, {0.0, -1.0 - k}});
  }
  set.combined = set.kernels[1];
  saveKernelSet((dir / "kernels.bin").string(), set);
  EXPECT_EQ(digestOf(dir / "kernels.bin"), "11a186c0de2e58d2");

  const auto storeDir = dir / "store";
  {
    PatternStore store(PatternStoreConfig{storeDir.string()});
    TileFingerprint fp;
    fp.coreHash = 0x0123456789abcdefull;
    fp.windowHash = 0xfedcba9876543210ull;
    fp.configHash = 0x00ff00ff00ff00ffull;
    fp.anchorPxRow = 2;
    fp.anchorPxCol = -3;
    ASSERT_TRUE(store.insert(fp, CachedSolution{ramp(4, 5, 0.05), 9, 0.5}));
  }
  std::vector<std::filesystem::path> entries;
  for (const auto& e : std::filesystem::directory_iterator(storeDir)) {
    if (e.path().extension() == ".bin") entries.push_back(e.path());
  }
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(digestOf(entries[0]), "cdb5fdaf6f062d2d");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mosaic
