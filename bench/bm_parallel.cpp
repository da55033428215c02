/// \file bm_parallel.cpp
/// Executor benchmarks (docs/performance.md, "Threading model"): the
/// persistent work-stealing pool's dispatch cost and nested scaling, and
/// the paste rate of cache-aware chip scheduling.
///
/// Three phases, all recorded in BENCH_parallel.json:
///   dispatch  per-call overhead of parallelFor on a small range, where
///             the pool hands chunks to warm workers.
///   nested    a replicated chip through the tile scheduler at 1/2/4
///             workers (outer tile loop + inner PV-corner loops share the
///             worker set), with the 1- and 4-worker stitched masks
///             checked bit for bit.
///   cache     a repetitive 10x10 cell chip, cold, through the
///             scheduler's cache-aware ordering (representatives first,
///             then exact-hit pastes).

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "suite/testcases.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "tile/scheduler.hpp"

namespace {

using namespace mosaic;

/// Per-call parallelFor overhead on a small range, in microseconds: the
/// body is a handful of arithmetic per index, so the measurement is
/// dominated by dispatch (enqueue/wakeup/join), not by work.
double runDispatchPhase(int workers, int range, int calls) {
  setParallelism(workers);
  std::vector<double> sink(static_cast<std::size_t>(range), 0.0);
  const auto body = [&sink](std::size_t i) {
    double x = static_cast<double>(i) + 1.0;
    x = x * 1.0000001 + 0.5 / x;
    sink[i] += x;
  };
  for (int c = 0; c < calls / 10 + 1; ++c) {  // warm-up: threads, pages
    parallelFor(0, static_cast<std::size_t>(range), body);
  }
  WallTimer timer;
  for (int c = 0; c < calls; ++c) {
    parallelFor(0, static_cast<std::size_t>(range), body);
  }
  const double usPerCall = timer.seconds() * 1e6 / calls;
  std::printf("== dispatch overhead: range %d, %d workers, %d calls ==\n",
              range, workers, calls);
  std::printf("pool: %8.1f us/call\n", usPerCall);
  return usPerCall;
}

bool masksIdentical(const BitGrid& a, const BitGrid& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

/// A 512 nm cell with three bars — small enough that a tile optimizes in
/// well under a second, repetitive enough that a KxK replication collapses
/// to ~9 fingerprint classes (corner / edge / interior halo differences).
Layout repetitiveChip(int replicate) {
  Layout cell;
  cell.name = "bm_parallel_cell";
  cell.sizeNm = 512;
  cell.addRect(96, 80, 416, 144);
  cell.addRect(96, 224, 288, 288);
  cell.addRect(96, 368, 416, 432);
  return replicateLayout(cell, replicate, replicate);
}

ChipConfig chipConfig(const std::string& kernelCache) {
  ChipConfig cfg;
  cfg.tiling.tileSizeNm = 512;
  cfg.tiling.haloNm = 128;
  cfg.tiling.pixelNm = 16;
  cfg.optics.pixelNm = 16;
  cfg.method = OpcMethod::kMosaicFast;
  cfg.iterations = 4;
  cfg.kernelCacheDir = kernelCache;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  int dispatchRange = 64;
  int dispatchCalls = 300;
  int dispatchWorkers = 4;
  int replicate = 10;
  double maxNestedRatio = 0.0;
  double minHitRate = 0.0;
  std::string jsonPath = "BENCH_parallel.json";
  std::string logLevel = "warn";

  CliParser cli("bm_parallel",
                "work-stealing executor dispatch cost, nested chip "
                "scaling, cache-aware tile ordering");
  cli.addInt("range", &dispatchRange, "parallelFor range per dispatch call");
  cli.addInt("calls", &dispatchCalls, "timed parallelFor calls");
  cli.addInt("workers", &dispatchWorkers, "worker count for the dispatch phase");
  cli.addInt("replicate", &replicate,
             "cell replication per axis for the cache-aware phase");
  cli.addDouble("max-nested-ratio", &maxNestedRatio,
                "fail unless 2-worker chip time <= ratio * 1-worker time "
                "(0 = report)");
  cli.addDouble("min-hit-rate", &minHitRate,
                "fail unless the cold run pastes this fraction of tiles "
                "from cache (0 = report)");
  cli.addString("json", &jsonPath, "output JSON path");
  cli.addString("log", &logLevel, "log level");

  try {
    if (!cli.parse(argc, argv)) return 0;
    setLogLevel(parseLogLevel(logLevel));
    bool ok = true;

    // Phase 1: dispatch overhead.
    const double dispatchUs =
        runDispatchPhase(dispatchWorkers, dispatchRange, dispatchCalls);

    // Phase 2: nested chip scaling; 1 and 4 workers must agree bit for
    // bit.
    const std::string kernelCache = "bm_parallel_kernels";
    const Layout smallChip = replicateLayout(buildTestcase(1), 2, 2);
    ChipConfig cfg = chipConfig(kernelCache);
    setParallelism(1);
    const ChipResult warm = optimizeChip(smallChip, cfg);  // kernel cache
    MOSAIC_CHECK(warm.allOk(), "warm-up chip run failed");

    struct NestedRun {
      int workers;
      double seconds;
    };
    std::vector<NestedRun> nested;
    bool bitIdentical = true;
    TextTable table;
    table.setHeader({"workers", "time (s)", "speedup"});
    BitGrid serialMask;
    for (const int workers : {1, 2, 4}) {
      setParallelism(workers);
      const ChipResult res = optimizeChip(smallChip, cfg);
      MOSAIC_CHECK(res.allOk(), "chip run failed at " << workers
                                                      << " workers");
      nested.push_back({workers, res.wallSeconds});
      table.addRow({std::to_string(workers),
                    TextTable::num(res.wallSeconds, 2),
                    TextTable::num(nested.front().seconds / res.wallSeconds,
                                   2)});
      if (workers == 1) serialMask = res.stitched.maskBinary;
      if (workers == 4) {
        bitIdentical = masksIdentical(res.stitched.maskBinary, serialMask);
      }
    }
    const double nestedRatio2 = nested[1].seconds / nested[0].seconds;
    std::printf("== nested chip: %d tiles ==\n",
                warm.partition.tileCount());
    std::printf("%s", table.render().c_str());
    const int hwThreads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    std::printf("2-worker/1-worker ratio: %.2f (on %d hardware "
                "thread(s)), 4-worker mask vs 1-worker: %s\n",
                nestedRatio2, hwThreads,
                bitIdentical ? "bit-identical" : "DIFFERS");
    const PoolStats stats = poolStats();
    std::printf("pool: %llu tasks, %llu stolen\n",
                static_cast<unsigned long long>(stats.tasksExecuted),
                static_cast<unsigned long long>(stats.tasksStolen));
    if (!bitIdentical) {
      std::fprintf(stderr,
                   "FAIL: 4-worker mask differs from the 1-worker mask\n");
      ok = false;
    }
    if (maxNestedRatio > 0.0 && nestedRatio2 > maxNestedRatio) {
      if (hwThreads < 2) {
        // A second worker cannot speed anything up on one CPU; report
        // instead of failing.
        std::printf("nested-ratio gate skipped: 1 hardware thread\n");
      } else {
        std::fprintf(stderr,
                     "FAIL: 2-worker ratio %.2f above the %.2f ceiling\n",
                     nestedRatio2, maxNestedRatio);
        ok = false;
      }
    }

    // Phase 3: cache-aware ordering on a cold store.
    setParallelism(4);
    const std::string store = "bm_parallel_cache";
    std::filesystem::remove_all(store);  // cold means cold
    ChipConfig cacheCfg = chipConfig(kernelCache);
    cacheCfg.patternCacheDir = store;
    const ChipResult ordered = optimizeChip(repetitiveChip(replicate),
                                            cacheCfg);
    MOSAIC_CHECK(ordered.allOk(), "cache phase chip run failed");
    const double orderedSeconds = ordered.wallSeconds;
    const int representatives = ordered.representatives;
    int pasted = 0;
    int tiles = 0;
    for (const TileOutcome& o : ordered.outcomes) {
      if (o.skippedEmpty) continue;
      ++tiles;
      if (o.fromCache) ++pasted;
    }
    const double hitRate =
        tiles > 0 ? static_cast<double>(pasted) / tiles : 0.0;
    std::printf("== cache-aware ordering: %d tiles, %d classes ==\n",
                tiles, representatives);
    std::printf("ordered cold: %.2f s (%d optimized, %d pasted, %.1f%% "
                "paste rate)\n",
                orderedSeconds, representatives, pasted, 100.0 * hitRate);
    if (minHitRate > 0.0 && hitRate < minHitRate) {
      std::fprintf(stderr, "FAIL: paste rate %.3f below the %.3f floor\n",
                   hitRate, minHitRate);
      ok = false;
    }
    setParallelism(0);

    FILE* json = std::fopen(jsonPath.c_str(), "w");
    MOSAIC_CHECK(json != nullptr, "cannot write " << jsonPath);
    std::fprintf(json,
                 "{\n  \"bench\": \"bm_parallel\",\n"
                 "  \"dispatch\": {\"range\": %d, \"workers\": %d, "
                 "\"pool_us_per_call\": %.2f},\n  \"nested\": {\"runs\": [",
                 dispatchRange, dispatchWorkers, dispatchUs);
    for (std::size_t i = 0; i < nested.size(); ++i) {
      std::fprintf(json, "{\"workers\": %d, \"seconds\": %.4f}%s",
                   nested[i].workers, nested[i].seconds,
                   i + 1 < nested.size() ? ", " : "");
    }
    std::fprintf(json,
                 "], \"ratio_2w\": %.3f, \"hardware_threads\": %d, "
                 "\"bit_identical\": %s}",
                 nestedRatio2, hwThreads, bitIdentical ? "true" : "false");
    std::fprintf(json,
                 ",\n  \"cache_aware\": {\"tiles\": %d, \"classes\": %d, "
                 "\"paste_rate\": %.4f, \"ordered_seconds\": %.4f}",
                 tiles, representatives, hitRate, orderedSeconds);
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n", jsonPath.c_str());
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bm_parallel: %s\n", e.what());
    return 1;
  }
}
