/// \file test_tile.cpp
/// Full-chip tiling engine: partitioner geometry, seam-consistent
/// stitching, fault-isolated scheduling, and the end-to-end tiled-vs-whole
/// acceptance run (docs/tiling.md).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "geometry/raster.hpp"
#include "eval/epe.hpp"
#include "litho/simulator.hpp"
#include "opc/optimizer.hpp"
#include "suite/testcases.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/jsonin.hpp"
#include "support/telemetry/runlog.hpp"
#include "tile/scheduler.hpp"
#include "tile/stitch.hpp"
#include "tile/tiling.hpp"

namespace mosaic {
namespace {

bool isPowerOfTwo(int v) { return v > 0 && (v & (v - 1)) == 0; }

/// Kernel cache shared by every scheduler test in this binary so the TCC
/// eigendecomposition for a given window size is paid exactly once.
std::string sharedKernelCache() {
  static const std::string dir = ::testing::TempDir() + "mosaic_tile_kernels";
  return dir;
}

TEST(TilePartition, DefaultHaloIsTwiceTheOpticalRadius) {
  const OpticsConfig optics;
  const int radius = opticalInteractionRadiusNm(optics);
  EXPECT_EQ(radius, static_cast<int>(
                        std::ceil(optics.wavelengthNm / optics.na)));
  const int halo = defaultHaloNm(optics, 16);
  EXPECT_GE(halo, 2 * radius);
  EXPECT_EQ(halo % 16, 0);
}

TEST(TilePartition, CoresTileTheChipDisjointly) {
  const Layout chip = replicateLayout(buildTestcase(1), 3, 3);
  ASSERT_EQ(chip.sizeNm, 3072);
  TilingConfig cfg;
  cfg.tileSizeNm = 1024;
  cfg.pixelNm = 16;
  const ChipPartition part = partitionChip(chip, cfg);

  EXPECT_EQ(part.tileRows, 3);
  EXPECT_EQ(part.tileCols, 3);
  ASSERT_EQ(part.tileCount(), 9);
  EXPECT_TRUE(isPowerOfTwo(part.windowGrid()));
  EXPECT_EQ(part.windowNm, part.tileSizeNm + 2 * part.haloNm);
  // Effective halo is never below the optics-derived default.
  EXPECT_GE(part.haloNm, defaultHaloNm(OpticsConfig{}, cfg.pixelNm));

  // Every chip nm cell belongs to exactly one core; every core sits
  // centered in its window.
  long long coreArea = 0;
  for (const TilePlan& tile : part.tiles) {
    EXPECT_TRUE(tile.coreNm.valid());
    coreArea += tile.coreNm.area();
    EXPECT_EQ(tile.coreNm.x0 - tile.windowNm.x0, part.haloNm);
    EXPECT_EQ(tile.coreNm.y0 - tile.windowNm.y0, part.haloNm);
    EXPECT_EQ(tile.windowNm.width(), part.windowNm);
    EXPECT_EQ(tile.windowNm.height(), part.windowNm);
    EXPECT_EQ(tile.window.sizeNm, part.windowNm);
    for (const TilePlan& other : part.tiles) {
      if (other.index == tile.index) continue;
      EXPECT_FALSE(tile.coreNm.intersects(other.coreNm))
          << "cores " << tile.index << " and " << other.index << " overlap";
    }
  }
  EXPECT_EQ(coreArea,
            static_cast<long long>(chip.sizeNm) * chip.sizeNm);
}

TEST(TilePartition, EdgeCoresClampToAnOddSizedChip) {
  Layout chip;
  chip.name = "odd";
  chip.sizeNm = 1536;
  chip.addRect(100, 100, 300, 200);
  TilingConfig cfg;
  cfg.tileSizeNm = 1024;
  cfg.pixelNm = 16;
  const ChipPartition part = partitionChip(chip, cfg);
  ASSERT_EQ(part.tileRows, 2);
  ASSERT_EQ(part.tileCols, 2);
  // Right/bottom cores shrink to the chip boundary, never past it.
  for (const TilePlan& tile : part.tiles) {
    EXPECT_LE(tile.coreNm.x1, chip.sizeNm);
    EXPECT_LE(tile.coreNm.y1, chip.sizeNm);
  }
  EXPECT_EQ(part.tiles.back().coreNm.width(), 512);
  EXPECT_EQ(part.tiles.back().coreNm.height(), 512);
}

TEST(TilePartition, WindowsClipThePatternAndFlagEmptyTiles) {
  Layout chip;
  chip.name = "corner";
  chip.sizeNm = 4096;
  chip.addRect(0, 0, 200, 200);  // pattern only in the min corner
  TilingConfig cfg;
  cfg.tileSizeNm = 1024;
  cfg.haloNm = 128;
  cfg.pixelNm = 16;
  const ChipPartition part = partitionChip(chip, cfg);
  ASSERT_EQ(part.tileCount(), 16);
  const TilePlan& first = part.tiles.front();
  EXPECT_FALSE(first.empty);
  ASSERT_EQ(first.window.rects.size(), 1u);
  // Window-local coordinates: the rect moved by the window origin.
  EXPECT_EQ(first.window.rects[0].x0, -first.windowNm.x0);
  const TilePlan& last = part.tiles.back();
  EXPECT_TRUE(last.empty);
  EXPECT_TRUE(last.window.rects.empty());
}

TEST(TilePartition, RejectsBadConfigs) {
  const Layout chip = buildTestcase(1);
  TilingConfig cfg;
  cfg.tileSizeNm = 1000;  // not a multiple of the pixel
  cfg.pixelNm = 16;
  EXPECT_THROW(partitionChip(chip, cfg), InvalidArgument);
  cfg.tileSizeNm = 0;
  EXPECT_THROW(partitionChip(chip, cfg), InvalidArgument);
}

ChipPartition smallPartition() {
  Layout chip;
  chip.name = "stitch";
  chip.sizeNm = 1024;
  chip.addRect(200, 200, 800, 400);
  TilingConfig cfg;
  cfg.tileSizeNm = 512;
  cfg.haloNm = 64;
  cfg.pixelNm = 16;
  return partitionChip(chip, cfg);
}

TEST(TileStitch, AgreeingTilesBlendWithoutSeams) {
  const ChipPartition part = smallPartition();
  const std::vector<RealGrid> masks(
      part.tiles.size(), RealGrid(part.windowGrid(), part.windowGrid(), 1.0));
  const StitchResult res = stitchTiles(part, masks, 0.5);
  EXPECT_GT(res.report.overlapPixels, 0);
  EXPECT_EQ(res.report.disagreeingPixels, 0);
  EXPECT_EQ(res.report.disagreementFraction, 0.0);
  EXPECT_EQ(res.report.nonFinitePixels, 0);
  EXPECT_EQ(res.report.coreMismatchPixels, 0);
  EXPECT_GE(res.report.maxCoverage, 2);
  for (int r = 0; r < part.chipGrid(); ++r) {
    for (int c = 0; c < part.chipGrid(); ++c) {
      ASSERT_NEAR(res.maskContinuous.at(r, c), 1.0, 1e-12);
      ASSERT_EQ(res.maskBinary.at(r, c), 1u);
    }
  }
}

TEST(TileStitch, DisagreementIsCountedInTheOverlap) {
  const ChipPartition part = smallPartition();
  std::vector<RealGrid> masks(
      part.tiles.size(), RealGrid(part.windowGrid(), part.windowGrid(), 0.0));
  masks[0] = RealGrid(part.windowGrid(), part.windowGrid(), 1.0);
  const StitchResult res = stitchTiles(part, masks, 0.5);
  // Tile 0 says "print", its neighbors say "background": every overlap
  // pixel that tile 0's window covers disagrees.
  EXPECT_GT(res.report.disagreeingPixels, 0);
  EXPECT_LE(res.report.disagreeingPixels, res.report.overlapPixels);
  EXPECT_GT(res.report.disagreementFraction, 0.0);
  // Blending a unanimous-0 neighborhood against tile 0's 1s flips pixels
  // near tile 0's core boundary: that is exactly what coreMismatch flags.
  EXPECT_GT(res.report.coreMismatchPixels, 0);
}

TEST(TileStitch, NonFiniteTilePixelsAreReported) {
  const ChipPartition part = smallPartition();
  std::vector<RealGrid> masks(
      part.tiles.size(), RealGrid(part.windowGrid(), part.windowGrid(), 0.0));
  masks[0].at(part.windowGrid() / 2, part.windowGrid() / 2) =
      std::numeric_limits<double>::quiet_NaN();
  const StitchResult res = stitchTiles(part, masks, 0.5);
  EXPECT_GT(res.report.nonFinitePixels, 0);
}

TEST(TileStitch, SeamBandMatchesOverlapCount) {
  const ChipPartition part = smallPartition();
  const std::vector<RealGrid> masks(
      part.tiles.size(), RealGrid(part.windowGrid(), part.windowGrid(), 0.0));
  const StitchResult res = stitchTiles(part, masks, 0.5);
  const BitGrid band = seamBand(part);
  long long bandPixels = 0;
  for (std::size_t i = 0; i < band.size(); ++i) {
    bandPixels += band.data()[i] ? 1 : 0;
  }
  EXPECT_EQ(bandPixels, res.report.overlapPixels);
}

ChipConfig fastChipConfig() {
  ChipConfig cfg;
  cfg.tiling.tileSizeNm = 512;
  cfg.tiling.haloNm = 128;
  cfg.tiling.pixelNm = 16;
  cfg.method = OpcMethod::kMosaicFast;
  cfg.iterations = 2;
  cfg.backoffMs = 1;
  cfg.kernelCacheDir = sharedKernelCache();
  return cfg;
}

TEST(TileScheduler, EmptyChipIsTriviallyOptimized) {
  Layout chip;
  chip.name = "blank";
  chip.sizeNm = 1024;
  const ChipResult res = optimizeChip(chip, fastChipConfig());
  EXPECT_TRUE(res.allOk());
  EXPECT_EQ(res.failed, 0);
  for (const TileOutcome& outcome : res.outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_TRUE(outcome.skippedEmpty);
  }
  for (std::size_t i = 0; i < res.stitched.maskBinary.size(); ++i) {
    ASSERT_EQ(res.stitched.maskBinary.data()[i], 0u);
  }
  EXPECT_EQ(res.stitched.report.nonFinitePixels, 0);
}

TEST(TileScheduler, ChipRecordCarriesTheKernelBuildTime) {
  // optimizeChip times its window kernel build (a disk-cache load here)
  // into ChipResult and the chip run-log record.
  const std::string path = ::testing::TempDir() + "mosaic_chip_runlog.jsonl";
  std::filesystem::remove(path);
  Layout chip;
  chip.name = "blank";
  chip.sizeNm = 1024;
  ChipConfig cfg = fastChipConfig();
  ChipResult res;
  {
    telemetry::RunLog log(path);
    cfg.runLog = &log;
    res = optimizeChip(chip, cfg);
  }
  EXPECT_GT(res.kernelSeconds, 0.0);
  EXPECT_LE(res.kernelSeconds, res.wallSeconds);
  std::ifstream in(path);
  std::string line;
  int chipRecords = 0;
  while (std::getline(in, line)) {
    const telemetry::JsonValue record = telemetry::JsonValue::parse(line);
    if (record.stringOr("type", "") != "chip") continue;
    ++chipRecords;
    EXPECT_NEAR(record.numberOr("kernel_s", -1.0), res.kernelSeconds, 1e-9);
  }
  EXPECT_EQ(chipRecords, 1);
}

TEST(TileScheduler, FailpointTileFallsBackAndChipSurvives) {
  setParallelism(1);  // deterministic hit order: tile 0 eats both hits
  const Layout chip = replicateLayout(buildTestcase(1), 2, 2);
  ChipConfig cfg = fastChipConfig();
  cfg.retries = 1;
  failpoint::ScopedFailpoints fp(
      "tile.optimize:throw@iter=1,tile.optimize:throw@iter=2");
  const ChipResult res = optimizeChip(chip, cfg);
  setParallelism(0);
  EXPECT_FALSE(res.allOk());
  EXPECT_EQ(res.failed, 1);
  EXPECT_EQ(res.succeeded, res.partition.tileCount() - 1);
  // The failed tile fell back to its uncorrected target; the stitched
  // chip is still complete and finite.
  EXPECT_EQ(res.stitched.report.nonFinitePixels, 0);
  const TileOutcome& failedTile = res.outcomes.front();
  EXPECT_FALSE(failedTile.ok);
  EXPECT_EQ(failedTile.attempts, 2);
  EXPECT_FALSE(failedTile.error.empty());
}

TEST(TileScheduler, CheckpointsAreWrittenPerTile) {
  const Layout chip = replicateLayout(buildTestcase(1), 2, 2);
  ChipConfig cfg = fastChipConfig();
  cfg.checkpointDir = ::testing::TempDir() + "mosaic_tile_ckpt";
  cfg.checkpointEvery = 1;
  const ChipResult res = optimizeChip(chip, cfg);
  EXPECT_TRUE(res.allOk());
  int checkpoints = 0;
  for (const TilePlan& tile : res.partition.tiles) {
    const std::string path = cfg.checkpointDir + "/tile_r" +
                             std::to_string(tile.row) + "_c" +
                             std::to_string(tile.col) + "_x" +
                             std::to_string(tile.coreNm.x0) + "_y" +
                             std::to_string(tile.coreNm.y0) + ".ckpt";
    if (std::ifstream(path).good()) ++checkpoints;
  }
  EXPECT_GT(checkpoints, 0);
  // Resuming from the finished checkpoints must also succeed.
  cfg.resume = true;
  const ChipResult resumed = optimizeChip(chip, cfg);
  EXPECT_TRUE(resumed.allOk());
}

TEST(TileScheduler, GarbageTileCheckpointRestartsTheTileFresh) {
  // An unusable checkpoint under `resume` is not an optimization failure:
  // the tile deletes it, restarts from scratch on its first attempt, and
  // checkpoints the fresh solve in its place.
  const Layout chip = replicateLayout(buildTestcase(1), 2, 2);
  ChipConfig cfg = fastChipConfig();
  cfg.checkpointDir = ::testing::TempDir() + "mosaic_tile_garbage_ckpt";
  std::filesystem::remove_all(cfg.checkpointDir);
  std::filesystem::create_directories(cfg.checkpointDir);
  cfg.checkpointEvery = 1;
  cfg.resume = true;
  const ChipPartition part = partitionChip(chip, cfg.tiling, cfg.optics);
  std::size_t victim = 0;
  while (victim < part.tiles.size() && part.tiles[victim].empty) ++victim;
  ASSERT_LT(victim, part.tiles.size());
  const TilePlan& tile = part.tiles[victim];
  const std::string path = cfg.checkpointDir + "/tile_r" +
                           std::to_string(tile.row) + "_c" +
                           std::to_string(tile.col) + "_x" +
                           std::to_string(tile.coreNm.x0) + "_y" +
                           std::to_string(tile.coreNm.y0) + ".ckpt";
  std::ofstream(path, std::ios::binary) << "not a checkpoint at all";

  const ChipResult res = optimizeChip(chip, cfg);
  EXPECT_TRUE(res.allOk());
  const TileOutcome& outcome = res.outcomes[victim];
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.iterations, cfg.iterations);
  EXPECT_NO_THROW((void)loadOptimizerCheckpoint(path));
}

TEST(TileScheduler, StopBeatsTheRetryBackoff) {
  // A failed tile whose run is being stopped must not sleep out its
  // backoff and retry: the stop wins, and the chip returns promptly.
  setParallelism(1);
  const Layout chip = replicateLayout(buildTestcase(1), 2, 2);
  ChipConfig cfg = fastChipConfig();
  cfg.retries = 1;
  cfg.backoffMs = 5000;
  CancelToken stop;
  cfg.cancel = &stop;
  failpoint::ScopedFailpoints fp("tile.optimize:throw");
  using Clock = std::chrono::steady_clock;
  Clock::time_point stoppedAt;
  std::thread stopper([&] {
    while (failpoint::hitCount("tile.optimize") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stoppedAt = Clock::now();
    stop.cancel();
  });
  const ChipResult res = optimizeChip(chip, cfg);
  const Clock::time_point returnedAt = Clock::now();
  stopper.join();
  setParallelism(0);
  const double returnedAfter =
      std::chrono::duration<double>(returnedAt - stoppedAt).count();
  EXPECT_LT(returnedAfter, 2.0);
  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(res.succeeded + res.failed, res.partition.tileCount());
  EXPECT_EQ(failpoint::hitCount("tile.optimize"), 1);
  for (const TileOutcome& o : res.outcomes) {
    if (!o.skippedEmpty) {
      EXPECT_FALSE(o.ok);
      EXPECT_LE(o.attempts, 1);
    }
  }
}

TEST(TileScheduler, MaskIsWorkerCountInvariantBitForBit) {
  // The work-stealing executor (nested tile + PV-corner parallelism) must
  // not perturb the deterministic optimizer: one worker and four workers
  // stitch exactly the same chip mask.
  const Layout chip = replicateLayout(buildTestcase(1), 2, 2);
  const ChipConfig cfg = fastChipConfig();

  setParallelism(1);
  const ChipResult serial = optimizeChip(chip, cfg);
  setParallelism(4);
  const ChipResult pooled = optimizeChip(chip, cfg);
  setParallelism(0);

  ASSERT_TRUE(serial.allOk());
  ASSERT_TRUE(pooled.allOk());
  const BitGrid& a = serial.stitched.maskBinary;
  const BitGrid& b = pooled.stitched.maskBinary;
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c)) << "mask differs at (" << r << "," << c
                                  << ")";
    }
  }
}

TEST(TileScheduler, CacheAwareOrderingPastesMembersFromRepresentatives) {
  // Cache-aware scheduling on a cold store: one representative per
  // fingerprint class optimizes in the first wave, every other member
  // exact-hits the representative's freshly inserted solution. A warm
  // rerun with ordering disabled (the unordered code path) must then
  // exact-hit everything and stitch a bit-identical chip.
  const Layout chip = replicateLayout(buildTestcase(1), 3, 3);
  ChipConfig cfg = fastChipConfig();
  cfg.patternCacheDir = ::testing::TempDir() + "mosaic_tile_order";
  std::filesystem::remove_all(cfg.patternCacheDir);  // cold means cold

  cfg.cacheAwareOrder = true;
  const ChipResult ordered = optimizeChip(chip, cfg);
  ASSERT_TRUE(ordered.allOk());
  EXPECT_TRUE(ordered.cacheOrdered);
  EXPECT_GT(ordered.representatives, 0);
  EXPECT_LT(ordered.representatives, ordered.partition.tileCount());
  int reps = 0, pasted = 0, nonEmpty = 0;
  for (const TileOutcome& o : ordered.outcomes) {
    if (o.skippedEmpty) continue;
    ++nonEmpty;
    if (o.representative) {
      ++reps;
      EXPECT_FALSE(o.fromCache);  // first of its class: a genuine miss
    } else {
      EXPECT_TRUE(o.fromCache) << "member tile " << o.index
                               << " did not exact-hit its representative";
      EXPECT_EQ(o.cacheHit, CacheHitKind::kExact);
      ++pasted;
    }
  }
  EXPECT_EQ(reps, ordered.representatives);
  EXPECT_EQ(pasted, nonEmpty - reps);

  cfg.cacheAwareOrder = false;
  const ChipResult warm = optimizeChip(chip, cfg);
  ASSERT_TRUE(warm.allOk());
  EXPECT_FALSE(warm.cacheOrdered);
  for (const TileOutcome& o : warm.outcomes) {
    if (!o.skippedEmpty) EXPECT_TRUE(o.fromCache);
  }
  const BitGrid& a = ordered.stitched.maskBinary;
  const BitGrid& b = warm.stitched.maskBinary;
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a(r, c), b(r, c)) << "mask differs at (" << r << "," << c
                                  << ")";
    }
  }
}

/// Count EPE violations restricted to the seam band. A sample sits on a
/// pixel boundary; it belongs to the seam if either adjacent pixel does.
int seamViolations(const EpeResult& epe, const BitGrid& band) {
  int violations = 0;
  for (const EpeSampleResult& s : epe.perSample) {
    const int b = s.sample.boundary;
    const int a = s.sample.along;
    const int r0 = s.sample.horizontal ? std::max(b - 1, 0) : a;
    const int c0 = s.sample.horizontal ? a : std::max(b - 1, 0);
    const int r1 = s.sample.horizontal ? std::min(b, band.rows() - 1) : a;
    const int c1 = s.sample.horizontal ? a : std::min(b, band.cols() - 1);
    const bool onSeam = band.at(r0, c0) != 0 || band.at(r1, c1) != 0;
    if (onSeam && s.violation) ++violations;
  }
  return violations;
}

/// The acceptance run (ISSUE 2): a synthetic 2048 x 2048 nm chip through
/// 2x2 tiles must stitch with no non-finite pixels, seam disagreement
/// under the documented 5% bound, and seam EPE within +-1 violation of a
/// whole-region reference optimization.
TEST(TileChip, EndToEndTiledMatchesWholeRegionOnSeams) {
  const Layout chip = replicateLayout(buildTestcase(1), 2, 2);
  ASSERT_EQ(chip.sizeNm, 2048);

  ChipConfig cfg;
  cfg.tiling.tileSizeNm = 1024;
  cfg.tiling.pixelNm = 16;  // haloNm < 0: optics-derived default
  cfg.method = OpcMethod::kMosaicFast;
  cfg.iterations = 30;
  cfg.kernelCacheDir = sharedKernelCache();
  const ChipResult res = optimizeChip(chip, cfg);

  ASSERT_TRUE(res.allOk());
  EXPECT_EQ(res.partition.tileRows, 2);
  EXPECT_EQ(res.partition.tileCols, 2);
  EXPECT_EQ(res.stitched.report.nonFinitePixels, 0);
  EXPECT_LT(res.stitched.report.disagreementFraction, 0.05);

  // Whole-region reference: one optimization of the full 2048 nm window,
  // sharing the kernel cache so the TCC decomposition is reused.
  OpticsConfig refOptics;
  refOptics.clipSizeNm = chip.sizeNm;
  refOptics.pixelNm = cfg.tiling.pixelNm;
  LithoSimulator sim(refOptics);
  sim.setKernelCacheDir(sharedKernelCache());
  IltConfig refConfig = defaultIltConfig(cfg.method, cfg.tiling.pixelNm);
  refConfig.maxIterations = cfg.iterations;
  const OpcResult ref =
      runOpc(sim, res.chipTarget, cfg.method, &refConfig, {}, {}, {});

  // Print both masks at nominal conditions and compare seam-band EPE.
  const BitGrid printedTiled =
      sim.print(toReal(res.stitched.maskBinary), nominalCorner());
  const BitGrid printedRef = sim.print(ref.maskTwoLevel, nominalCorner());
  const auto samples = extractSamples(res.chipTarget, 4);
  ASSERT_FALSE(samples.empty());
  const double thresholdNm = 15.0;
  const EpeResult epeTiled = measureEpe(printedTiled, res.chipTarget, samples,
                                        cfg.tiling.pixelNm, thresholdNm);
  const EpeResult epeRef = measureEpe(printedRef, res.chipTarget, samples,
                                      cfg.tiling.pixelNm, thresholdNm);
  const BitGrid band = seamBand(res.partition);
  const int tiledSeam = seamViolations(epeTiled, band);
  const int refSeam = seamViolations(epeRef, band);
  std::cout << "[ e2e ] seam disagreement "
            << res.stitched.report.disagreementFraction * 100.0
            << "% over " << res.stitched.report.overlapPixels
            << " px; seam EPE " << tiledSeam << " tiled vs " << refSeam
            << " reference (totals " << epeTiled.violations << " vs "
            << epeRef.violations << ")\n";
  EXPECT_LE(std::abs(tiledSeam - refSeam), 1)
      << "tiled seam violations " << tiledSeam << " (of "
      << epeTiled.violations << " total) vs whole-region " << refSeam
      << " (of " << epeRef.violations << " total)";
}

}  // namespace
}  // namespace mosaic
