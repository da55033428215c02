#include "tile/scheduler.hpp"

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

#include "cache/manifest.hpp"
#include "geometry/raster.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/runlog.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace mosaic {
namespace {

std::string tileCheckpointPath(const std::string& dir, const TilePlan& tile) {
  // The core origin is part of the name (not just the grid index): a
  // resume after a tiling-parameter change must start fresh, not load a
  // checkpoint for a different window that happens to share (row, col).
  return dir + "/tile_r" + std::to_string(tile.row) + "_c" +
         std::to_string(tile.col) + "_x" + std::to_string(tile.coreNm.x0) +
         "_y" + std::to_string(tile.coreNm.y0) + ".ckpt";
}

/// One JSONL record per finished tile (schema: docs/observability.md).
void emitTileRecord(telemetry::RunLog* runLog, const TileOutcome& outcome,
                    bool cacheEnabled) {
  if (!runLog) return;
  telemetry::JsonObject obj;
  obj.set("type", "tile");
  obj.set("row", outcome.row);
  obj.set("col", outcome.col);
  obj.set("status", outcome.skippedEmpty ? "empty"
                    : outcome.ok         ? "ok"
                                         : "fallback");
  obj.set("attempts", outcome.attempts);
  obj.set("iterations", outcome.iterations);
  obj.set("recoveries", outcome.recoveries);
  obj.set("non_finite", outcome.nonFiniteEvents);
  obj.set("wall_ms", outcome.seconds * 1000.0);
  if (cacheEnabled && !outcome.skippedEmpty) {
    obj.set("cache", cacheHitKindName(outcome.cacheHit));
    if (outcome.representative) obj.set("representative", true);
  }
  if (!outcome.error.empty()) obj.set("error", outcome.error);
  runLog->write(obj);
}

/// Chip-level summary record carrying the seam statistics — seam quality
/// is a property of the stitched whole, so it cannot go on tile records.
void emitChipRecord(telemetry::RunLog* runLog, const ChipResult& result) {
  if (!runLog) return;
  const SeamReport& seam = result.stitched.report;
  telemetry::JsonObject obj;
  obj.set("type", "chip");
  obj.set("tiles", static_cast<long long>(result.outcomes.size()));
  obj.set("succeeded", result.succeeded);
  obj.set("failed", result.failed);
  obj.set("seam_overlap_px", seam.overlapPixels);
  obj.set("seam_disagree_px", seam.disagreeingPixels);
  obj.set("seam_disagree_frac", seam.disagreementFraction);
  obj.set("seam_core_mismatch_px", seam.coreMismatchPixels);
  obj.set("seam_non_finite_px", seam.nonFinitePixels);
  obj.set("wall_s", result.wallSeconds);
  obj.set("kernel_s", result.kernelSeconds);
  if (result.cacheEnabled) {
    const PatternStoreStats& cs = result.cacheStats;
    obj.set("cache_exact", static_cast<unsigned long long>(cs.exactHits));
    obj.set("cache_translated",
            static_cast<unsigned long long>(cs.translatedHits));
    obj.set("cache_near_miss",
            static_cast<unsigned long long>(cs.nearMissHits));
    obj.set("cache_miss", static_cast<unsigned long long>(cs.misses));
    obj.set("cache_inserts", static_cast<unsigned long long>(cs.inserts));
    obj.set("cache_evictions", static_cast<unsigned long long>(cs.evictions));
    obj.set("cache_quarantined",
            static_cast<unsigned long long>(cs.quarantined));
    obj.set("cache_hit_rate", cs.hitRate());
    obj.set("cache_representatives", result.representatives);
  }
  if (result.eco.active) {
    obj.set("eco_base_valid", result.eco.baseValid);
    obj.set("eco_tiles_changed", result.eco.tilesChanged);
    obj.set("eco_tiles_unchanged", result.eco.tilesUnchanged);
  }
  runLog->write(obj);
}

}  // namespace

ChipResult optimizeChip(const Layout& chip, const ChipConfig& cfg) {
  MOSAIC_CHECK(cfg.retries >= 0, "chip retries must be >= 0");
  MOSAIC_CHECK(cfg.backoffMs >= 0, "chip backoff must be >= 0");
  WallTimer wallTimer;

  ChipResult result;
  result.partition = partitionChip(chip, cfg.tiling, cfg.optics);
  const ChipPartition& part = result.partition;
  result.chipTarget = rasterize(chip, part.pixelNm);

  // One simulator, sized to the shared tile window, for every worker.
  // Const use is thread-safe (see litho/simulator.hpp); kernels for the
  // corners the optimizer touches are pre-warmed here so the expensive
  // eigendecompositions run once, not once per worker.
  OpticsConfig windowOptics = cfg.optics;
  windowOptics.clipSizeNm = part.windowNm;
  windowOptics.pixelNm = part.pixelNm;
  LithoSimulator sim(windowOptics);
  if (!cfg.kernelCacheDir.empty()) {
    std::filesystem::create_directories(cfg.kernelCacheDir);
    sim.setKernelCacheDir(cfg.kernelCacheDir);
  }
  if (!cfg.checkpointDir.empty()) {
    std::filesystem::create_directories(cfg.checkpointDir);
  }
  IltConfig baseConfig = defaultIltConfig(cfg.method, part.pixelNm);
  if (cfg.iterations > 0) baseConfig.maxIterations = cfg.iterations;
  baseConfig.deadlineSeconds = cfg.tileDeadlineSeconds;
  {
    std::vector<double> focuses{nominalCorner().focusNm};
    for (const ProcessCorner& corner : baseConfig.pvbCorners) {
      focuses.push_back(corner.focusNm);
    }
    WallTimer kernelTimer;
    sim.warmKernels(focuses);
    result.kernelSeconds = kernelTimer.seconds();
  }

  const std::size_t tileCount = part.tiles.size();
  std::vector<RealGrid> tileMasks(tileCount);
  result.outcomes.assign(tileCount, TileOutcome{});

  // Pattern-library cache (docs/caching.md). An ECO run points the cache
  // at the previous run's store so unchanged tiles exact-hit.
  const std::string cacheDir =
      !cfg.ecoBaseDir.empty() ? cfg.ecoBaseDir : cfg.patternCacheDir;
  std::unique_ptr<PatternStore> store;
  std::vector<TileFingerprint> fingerprints(tileCount);
  if (!cacheDir.empty()) {
    store = std::make_unique<PatternStore>(
        PatternStoreConfig{cacheDir, cfg.patternCacheMaxBytes});
    result.cacheEnabled = true;
    const std::uint64_t configHash =
        solverConfigDigest(windowOptics, baseConfig,
                           static_cast<int>(cfg.method), part.windowNm,
                           part.pixelNm);
    for (std::size_t i = 0; i < tileCount; ++i) {
      const TilePlan& tile = part.tiles[i];
      const RectNm coreLocal{tile.coreNm.x0 - tile.windowNm.x0,
                             tile.coreNm.y0 - tile.windowNm.y0,
                             tile.coreNm.x1 - tile.windowNm.x0,
                             tile.coreNm.y1 - tile.windowNm.y0};
      fingerprints[i] =
          fingerprintWindow(tile.window, coreLocal, part.pixelNm, configHash);
    }
  }

  // ECO diff: compare this layout's fingerprints against the base run's
  // manifest, keyed by core origin so re-indexing cannot confuse the diff.
  result.eco.active = !cfg.ecoBaseDir.empty();
  if (result.eco.active) {
    std::vector<ManifestEntry> base;
    result.eco.baseValid =
        readFingerprintManifest(manifestPath(cfg.ecoBaseDir), &base);
    if (!result.eco.baseValid) {
      LOG_WARN("eco: no usable fingerprint manifest in " << cfg.ecoBaseDir
               << "; treating every tile as changed");
    }
    std::map<std::pair<int, int>, TileFingerprint> byOrigin;
    for (const ManifestEntry& e : base) {
      byOrigin[{e.coreXNm, e.coreYNm}] = e.fp;
    }
    result.eco.tilesTotal = static_cast<int>(tileCount);
    for (std::size_t i = 0; i < tileCount; ++i) {
      const TilePlan& tile = part.tiles[i];
      const auto it = byOrigin.find({tile.coreNm.x0, tile.coreNm.y0});
      if (it != byOrigin.end() && it->second == fingerprints[i]) {
        ++result.eco.tilesUnchanged;
      } else {
        ++result.eco.tilesChanged;
        result.eco.changedTiles.push_back(static_cast<int>(i));
      }
    }
    LOG_INFO("eco: " << result.eco.tilesChanged << " of "
                     << result.eco.tilesTotal
                     << " tiles changed vs base run in " << cfg.ecoBaseDir);
  }

  const bool cacheOn = store != nullptr;
  // Each tile task re-enters the caller's trace context on whatever pool
  // thread it lands on, so the Chrome trace export and run-log records
  // stay correlated end to end.
  const std::uint64_t traceId = telemetry::currentTraceId();
  AttemptPolicy tilePolicy;
  tilePolicy.failpointSite = "tile.optimize";
  tilePolicy.maxAttempts = cfg.retries + 1;
  tilePolicy.backoffMs = cfg.backoffMs;
  tilePolicy.checkpointEvery = cfg.checkpointEvery;
  tilePolicy.resume = cfg.resume;
  tilePolicy.cancel = cfg.cancel;

  // One tile start to finish: fills `outcome` and returns the window mask.
  const auto solveTile = [&](std::size_t i, TileOutcome& outcome) {
    const TilePlan& tile = part.tiles[i];
    const BitGrid target = rasterize(tile.window, part.pixelNm);
    if (tile.empty) {
      // Nothing to print in this window: the optimal mask is background.
      outcome.ok = true;
      outcome.skippedEmpty = true;
      return RealGrid(part.windowGrid(), part.windowGrid(),
                      baseConfig.maskLow);
    }
    // Cooperative interruption: a tile that has not started when the
    // token fires falls back to the uncorrected pattern immediately so
    // the chip still stitches; a resumed run re-optimizes it.
    if (cfg.cancel != nullptr && cfg.cancel->stopRequested()) {
      outcome.error = "canceled before start";
      return toReal(target);
    }

    // Consult the pattern library. Exact hits paste the cached mask and
    // skip optimization entirely; translated and near-miss hits become a
    // warm start with a reduced iteration budget.
    const TileFingerprint& fp = fingerprints[i];
    IltConfig tileConfig = baseConfig;
    RealGrid warmStart;
    if (store) {
      StoreConsult hit = consultStore(*store, fp, target, &tileConfig);
      outcome.cacheHit = hit.kind;
      if (hit.kind == CacheHitKind::kExact) {
        outcome.ok = true;
        outcome.fromCache = true;
        return std::move(hit.solution.mask);
      }
      warmStart = std::move(hit.solution.mask);
      outcome.warmStarted = !warmStart.empty();
    }

    // Per-tile fault isolation (docs/robustness.md, "Fault contract"):
    // only this tile retries.
    MOSAIC_SPAN("tile.optimize");
    AttemptPolicy policy = tilePolicy;
    policy.label =
        "tile_r" + std::to_string(tile.row) + "_c" + std::to_string(tile.col);
    if (!cfg.checkpointDir.empty()) {
      policy.checkpointPath = tileCheckpointPath(cfg.checkpointDir, tile);
    }
    OpcResult res;
    const AttemptOutcome attempts =
        runAttempts(policy, [&](int, OptimizeOptions& options) {
          options.runLog = cfg.runLog;
          options.warmStartMask = warmStart;
          res = runOpc(sim, target, cfg.method, &tileConfig, {}, {}, options);
        });
    outcome.attempts = attempts.attempts;
    outcome.error = attempts.error;
    outcome.iterations = res.iterations;
    if (attempts.ok && res.stopReason != StopReason::kCanceled) {
      outcome.nonFiniteEvents = res.nonFiniteEvents;
      outcome.recoveries = res.recoveries;
      outcome.ok = true;
      if (store) publishSolve(*store, fp, res);
      return res.maskTwoLevel;
    }
    if (attempts.ok) {
      // Interrupted mid-tile: the optimizer already checkpointed, so a
      // resumed run finishes the job.
      outcome.error = "canceled mid-optimization (checkpointed)";
    }
    // Last resort: ship the uncorrected pattern for this window so the
    // chip still stitches. The seam report and the outcome row make the
    // degradation visible; the caller decides whether to re-run.
    telemetry::metrics().counter("tile.fallbacks").add();
    return toReal(target);
  };

  const auto processTile = [&](std::size_t i) {
    const TilePlan& tile = part.tiles[i];
    telemetry::TraceScope traceScope(traceId);
    TileOutcome& outcome = result.outcomes[i];
    outcome.index = tile.index;
    outcome.row = tile.row;
    outcome.col = tile.col;
    WallTimer tileTimer;
    tileMasks[i] = solveTile(i, outcome);
    outcome.seconds = tileTimer.seconds();
    emitTileRecord(cfg.runLog, outcome, cacheOn);
  };

  // Cache-aware scheduling (docs/caching.md): optimize one representative
  // of each fingerprint equivalence class first, then fan out the
  // remaining members — by then every one of them exact-hits the store and
  // pastes instead of optimizing. On repetitive layouts a cold run is
  // #classes optimizations plus #tiles - #classes pastes. Without a store
  // the tiles run as one wave, seed order.
  if (cacheOn) {
    std::vector<std::size_t> representatives;
    std::vector<std::size_t> members;
    std::map<std::uint64_t, std::size_t> classSeen;
    for (std::size_t i = 0; i < tileCount; ++i) {
      if (part.tiles[i].empty) {
        members.push_back(i);  // trivial; no reason to hold up wave 1
        continue;
      }
      if (classSeen.emplace(fingerprints[i].combined(), i).second) {
        representatives.push_back(i);
        result.outcomes[i].representative = true;
      } else {
        members.push_back(i);
      }
    }
    result.representatives = static_cast<int>(representatives.size());
    telemetry::metrics().counter("cache.representatives")
        .add(representatives.size());
    LOG_INFO("chip: cache-aware order, "
             << representatives.size() << " representative(s) for "
             << tileCount << " tiles");
    parallelFor(0, representatives.size(),
                [&](std::size_t k) { processTile(representatives[k]); });
    parallelFor(0, members.size(),
                [&](std::size_t k) { processTile(members[k]); });
  } else {
    parallelFor(0, tileCount, processTile);
  }

  for (const TileOutcome& outcome : result.outcomes) {
    if (outcome.ok) {
      ++result.succeeded;
    } else {
      ++result.failed;
    }
  }
  result.interrupted = cfg.cancel != nullptr && cfg.cancel->stopRequested();

  if (store) {
    result.cacheStats = store->stats();
    // Record this run's fingerprints so a future ECO run can diff against
    // it. Best effort: a failed manifest write degrades ECO reporting, not
    // the chip result.
    std::vector<ManifestEntry> manifest;
    manifest.reserve(tileCount);
    for (std::size_t i = 0; i < tileCount; ++i) {
      const TilePlan& tile = part.tiles[i];
      manifest.push_back({tile.coreNm.x0, tile.coreNm.y0, fingerprints[i]});
    }
    try {
      writeFingerprintManifest(manifestPath(store->dir()), manifest);
    } catch (const std::exception& e) {
      LOG_WARN("could not write fingerprint manifest: " << e.what());
    }
  }

  const double threshold = 0.5 * (baseConfig.maskLow + baseConfig.maskHigh);
  result.stitched = stitchTiles(part, tileMasks, threshold);
  result.wallSeconds = wallTimer.seconds();
  emitChipRecord(cfg.runLog, result);
  return result;
}

}  // namespace mosaic
