/// \file bm_tile.cpp
/// Tiling-engine throughput: optimizes a replicated full chip through the
/// tile scheduler at 1/2/4 workers, reports tiles/sec and the parallel
/// speedup, and emits BENCH_tile.json for trend tracking. Kernel sets are
/// pre-cached on disk before timing so every run measures the scheduler,
/// not the one-off TCC eigendecomposition.
///
/// With --cache (or --cache-only) it also measures the pattern-library
/// cache on a repeated-cell chip over five cold/warm pairs: each cold run
/// fills a fresh store, then a warm run must exact-hit, stitch a
/// bit-identical mask, and beat the cold wall time. Results land in
/// BENCH_cache.json. --min-warm-speedup gates the median of the paired
/// cold/warm ratios, so one noisy pair cannot fail it; --min-hit-rate and
/// the bit-identical stitch hold on every pair. Together they are the
/// tier-1 `cache_effectiveness` ctest.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "suite/testcases.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "tile/scheduler.hpp"

namespace {

/// Cold/warm pairs the pattern-cache phase times. With the kernel cache
/// warm a cold chip takes tens of milliseconds, so one pair can be
/// disturbed by host noise; the gate reads the median of five.
constexpr int kCachePairs = 5;

/// Whether two stitched masks agree bit for bit.
bool sameMask(const mosaic::BitGrid& a, const mosaic::BitGrid& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

/// One cold/warm pair of the pattern-cache phase.
struct CachePair {
  double coldSeconds = 0.0;
  double warmSeconds = 0.0;
  double hitRate = 0.0;
  unsigned long long exactHits = 0;
  unsigned long long coldMisses = 0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return warmSeconds > 0.0 ? coldSeconds / warmSeconds : 0.0;
  }
};

/// Pattern-cache effectiveness phase. Returns false when a gate fails.
bool runCachePhase(const mosaic::Layout& chip, mosaic::ChipConfig cfg,
                   const std::string& jsonPath, double minWarmSpeedup,
                   double minHitRate) {
  using namespace mosaic;
  const std::string storeDir = "bm_tile_pattern_cache";
  cfg.patternCacheDir = storeDir;

  std::vector<CachePair> runs;
  int tiles = 0;
  for (int i = 0; i < kCachePairs; ++i) {
    std::filesystem::remove_all(storeDir);  // cold means cold
    const ChipResult cold = optimizeChip(chip, cfg);
    MOSAIC_CHECK(cold.allOk(), "cold cache chip run failed");
    const ChipResult warmRun = optimizeChip(chip, cfg);
    MOSAIC_CHECK(warmRun.allOk(), "warm cache chip run failed");
    tiles = cold.partition.tileCount();
    CachePair pair;
    pair.coldSeconds = cold.wallSeconds;
    pair.warmSeconds = warmRun.wallSeconds;
    pair.hitRate = warmRun.cacheStats.hitRate();
    pair.exactHits = warmRun.cacheStats.exactHits;
    pair.coldMisses = cold.cacheStats.misses;
    pair.identical =
        sameMask(cold.stitched.maskBinary, warmRun.stitched.maskBinary);
    runs.push_back(pair);
  }

  std::vector<double> speedups;
  for (const CachePair& pair : runs) speedups.push_back(pair.speedup());
  std::sort(speedups.begin(), speedups.end());
  const std::size_t mid = speedups.size() / 2;
  const double median = speedups.size() % 2 == 1
                            ? speedups[mid]
                            : 0.5 * (speedups[mid - 1] + speedups[mid]);

  std::printf("== pattern cache: %d tiles, %d cold/warm pairs ==\n", tiles,
              kCachePairs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CachePair& pair = runs[i];
    std::printf("pair %zu: cold %.3f s (%llu misses), warm %.3f s (%llu "
                "exact hits, %.1f%% hit rate), %.2fx, stitched masks %s\n",
                i + 1, pair.coldSeconds, pair.coldMisses, pair.warmSeconds,
                pair.exactHits, 100.0 * pair.hitRate, pair.speedup(),
                pair.identical ? "bit-identical" : "DIFFER");
  }
  std::printf("median warm speedup: %.2fx (pairs %.2fx .. %.2fx)\n", median,
              speedups.front(), speedups.back());

  FILE* json = std::fopen(jsonPath.c_str(), "w");
  MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
  std::fprintf(json,
               "{\n  \"bench\": \"bm_tile_cache\",\n  \"tiles\": %d,\n"
               "  \"median_warm_speedup\": %.3f,\n  \"pairs\": [\n",
               tiles, median);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CachePair& pair = runs[i];
    std::fprintf(
        json,
        "    {\"cold_seconds\": %.4f, \"warm_seconds\": %.4f, "
        "\"warm_speedup\": %.3f, \"hit_rate\": %.4f, \"exact_hits\": %llu, "
        "\"misses_cold\": %llu, \"bit_identical\": %s}%s\n",
        pair.coldSeconds, pair.warmSeconds, pair.speedup(), pair.hitRate,
        pair.exactHits, pair.coldMisses, pair.identical ? "true" : "false",
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", jsonPath.c_str());

  bool ok = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CachePair& pair = runs[i];
    if (!pair.identical) {
      std::fprintf(stderr, "FAIL: pair %zu: warm stitched mask differs from "
                           "cold\n", i + 1);
      ok = false;
    }
    if (minHitRate > 0.0 && pair.hitRate < minHitRate) {
      std::fprintf(stderr, "FAIL: pair %zu: hit rate %.3f below the %.3f "
                           "floor\n", i + 1, pair.hitRate, minHitRate);
      ok = false;
    }
  }
  if (minWarmSpeedup > 0.0 && median < minWarmSpeedup) {
    std::fprintf(stderr,
                 "FAIL: median warm speedup %.2fx below the %.2fx floor\n",
                 median, minWarmSpeedup);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mosaic;
  int caseIdx = 1;
  int replicate = 2;
  int tileSize = 512;
  int halo = 128;
  int pixel = 16;
  int iterations = 5;
  std::string cacheDir = "bm_tile_kernels";
  std::string jsonPath = "BENCH_tile.json";
  std::string cacheJsonPath = "BENCH_cache.json";
  bool cacheBench = false;
  bool cacheOnly = false;
  double minWarmSpeedup = 0.0;
  double minHitRate = 0.0;
  std::string logLevel = "warn";

  CliParser cli("bm_tile", "tile scheduler throughput and parallel speedup");
  cli.addInt("case", &caseIdx, "testcase replicated into the chip");
  cli.addInt("replicate", &replicate, "replication factor per axis");
  cli.addInt("tile-size", &tileSize, "core tile edge in nm");
  cli.addInt("halo", &halo, "requested halo in nm (-1 = optics default)");
  cli.addInt("pixel", &pixel, "pixel size in nm");
  cli.addInt("iters", &iterations, "optimizer iterations per tile");
  cli.addString("kernel-cache", &cacheDir, "kernel cache directory");
  cli.addString("json", &jsonPath, "output JSON path");
  cli.addFlag("cache", &cacheBench,
              "also measure the pattern cache (cold fill vs warm reuse)");
  cli.addFlag("cache-only", &cacheOnly,
              "run only the pattern-cache phase (the ctest gate)");
  cli.addString("cache-json", &cacheJsonPath,
                "pattern-cache phase output JSON path");
  cli.addDouble("min-warm-speedup", &minWarmSpeedup,
                "fail unless the median pair's warm run is this much faster "
                "(0 = report)");
  cli.addDouble("min-hit-rate", &minHitRate,
                "fail unless the warm hit rate reaches this (0 = report)");
  cli.addString("log", &logLevel, "log level");
  try {
    if (!cli.parse(argc, argv)) return 0;
    setLogLevel(parseLogLevel(logLevel));

    const Layout chip = replicateLayout(buildTestcase(caseIdx), replicate,
                                        replicate);
    ChipConfig cfg;
    cfg.tiling.tileSizeNm = tileSize;
    cfg.tiling.haloNm = halo;
    cfg.tiling.pixelNm = pixel;
    cfg.iterations = iterations;
    cfg.kernelCacheDir = cacheDir;

    if (cacheOnly) {
      return runCachePhase(chip, cfg, cacheJsonPath, minWarmSpeedup,
                           minHitRate)
                 ? 0
                 : 1;
    }

    // Untimed warm-up run: populates the on-disk kernel cache and touches
    // every code path once.
    setParallelism(1);
    const ChipResult warm = optimizeChip(chip, cfg);
    MOSAIC_CHECK(warm.allOk(), "warm-up chip run failed");
    const int tiles = warm.partition.tileCount();

    struct Run {
      int workers;
      double seconds;
      double tilesPerSec;
    };
    std::vector<Run> runs;
    TextTable table;
    table.setHeader({"workers", "time (s)", "tiles/s", "speedup"});
    for (const int workers : {1, 2, 4}) {
      setParallelism(workers);
      const ChipResult res = optimizeChip(chip, cfg);
      MOSAIC_CHECK(res.allOk(), "chip run failed at " << workers
                                                      << " workers");
      const double seconds = res.wallSeconds;
      runs.push_back({workers, seconds, tiles / seconds});
      table.addRow({std::to_string(workers), TextTable::num(seconds, 2),
                    TextTable::num(tiles / seconds, 2),
                    TextTable::num(runs.front().seconds / seconds, 2)});
    }
    setParallelism(0);

    std::printf("== bm_tile: %d tiles of %d nm window, %d iters ==\n", tiles,
                warm.partition.windowNm, iterations);
    std::printf("%s", table.render().c_str());
    const double speedup4 = runs.front().seconds / runs.back().seconds;
    std::printf("speedup at 4 workers: %.2fx (hardware threads: %d)\n",
                speedup4, hardwareParallelism());

    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json,
                 "{\n  \"bench\": \"bm_tile\",\n  \"chip_nm\": %d,\n"
                 "  \"tiles\": %d,\n  \"window_nm\": %d,\n"
                 "  \"iterations\": %d,\n  \"runs\": [\n",
                 chip.sizeNm, tiles, warm.partition.windowNm, iterations);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      std::fprintf(json,
                   "    {\"workers\": %d, \"seconds\": %.4f, "
                   "\"tiles_per_sec\": %.3f}%s\n",
                   runs[i].workers, runs[i].seconds, runs[i].tilesPerSec,
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"speedup_4\": %.3f\n}\n", speedup4);
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());

    if (cacheBench &&
        !runCachePhase(chip, cfg, cacheJsonPath, minWarmSpeedup,
                       minHitRate)) {
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_tile: %s\n", e.what());
    return 1;
  }
  return 0;
}
