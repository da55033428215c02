#pragma once
/// \file scheduler.hpp
/// Parallel, fault-isolated tile optimization — the middle of the
/// full-chip tiling engine (docs/tiling.md).
///
/// Tiles produced by partitionChip are optimized concurrently on the
/// parallelFor pool. All workers share one immutable LithoSimulator (its
/// const interface is thread-safe; the kernel sets are pre-warmed before
/// fan-out so workers never pay the TCC eigendecomposition). Each tile's
/// solve runs under the shared fault contract (runAttempts,
/// opc/mosaic.hpp): failures are caught, retried with backoff, and a tile
/// that exhausts its retries falls back to the uncorrected target pattern
/// so the chip still stitches — one diverging tile must never take the
/// whole chip down. The fail-point site `tile.optimize` lets tests force
/// tile failures deterministically.

#include <string>
#include <vector>

#include "cache/store.hpp"
#include "opc/mosaic.hpp"
#include "support/cancel.hpp"
#include "tile/stitch.hpp"
#include "tile/tiling.hpp"

namespace mosaic {

namespace telemetry {
class RunLog;
}

/// Knobs of the full-chip run.
struct ChipConfig {
  TilingConfig tiling;
  OpticsConfig optics;  ///< clipSizeNm/pixelNm are overridden per window
  OpcMethod method = OpcMethod::kMosaicFast;
  int iterations = 0;  ///< optimizer iterations per tile (0 = method default)
  int retries = 1;     ///< retries per tile on failure
  int backoffMs = 50;  ///< retry backoff (multiplied by the attempt number)
  double tileDeadlineSeconds = 0.0;  ///< per-tile wall-clock budget (0 = off)
  /// Directory for per-tile optimizer checkpoints (empty = off). Files are
  /// named tile_r<row>_c<col>_x<coreX>_y<coreY>.ckpt — the core origin is
  /// part of the name so a resume against a re-partitioned chip (different
  /// tile size or halo) can never pick up a checkpoint whose grid index
  /// happens to collide. With `resume`, tiles whose checkpoint exists
  /// continue from it — a killed chip run can be restarted and only
  /// re-pays the unfinished iterations.
  std::string checkpointDir;
  int checkpointEvery = 5;
  bool resume = false;
  /// On-disk kernel cache directory shared by all tiles (empty = off).
  std::string kernelCacheDir;
  /// Pattern-library cache directory (empty = off, docs/caching.md). Tiles
  /// whose fingerprint exact-hits paste the cached mask; translated and
  /// near-miss hits warm-start on a quarter of the cold budget; misses
  /// optimize and insert. A `fingerprints.jsonl` manifest is written
  /// alongside for later ECO runs.
  std::string patternCacheDir;
  /// Byte cap for the pattern store (LRU-evicted above it; 0 = unlimited).
  long long patternCacheMaxBytes = 512ll << 20;
  /// Cache-aware tile ordering (docs/caching.md): tiles are grouped by
  /// fingerprint equivalence class and one *representative* per class is
  /// optimized first; the remaining members then fan out as cheap
  /// steal-able paste tasks that exact-hit the representative's freshly
  /// inserted solution. On repetitive layouts this turns a cold run into
  /// #classes optimizations plus #tiles - #classes pastes instead of
  /// #tiles optimizations. Only meaningful when a pattern store is
  /// active; ignored otherwise.
  bool cacheAwareOrder = true;
  /// Incremental re-OPC: pattern-store directory of a previous run. The
  /// run uses it as the pattern cache (so unchanged tiles exact-hit) and
  /// diffs the current fingerprints against its manifest into
  /// ChipResult::eco. Overrides patternCacheDir when set.
  std::string ecoBaseDir;
  /// When set, every tile appends per-iteration and per-tile JSONL records
  /// here, plus one chip-level summary record with the seam statistics
  /// (docs/observability.md). Not owned; must outlive the run.
  telemetry::RunLog* runLog = nullptr;
  /// Cooperative stop (Ctrl-C, serve drain): tiles not yet started fall
  /// back to the uncorrected pattern immediately, running tiles stop at
  /// their next optimizer iteration and checkpoint (when checkpointDir is
  /// set), and the chip still stitches so partial work is inspectable.
  /// Restart with `resume` to continue. Not owned; may be nullptr.
  const CancelToken* cancel = nullptr;
};

/// Outcome of one tile's optimization.
struct TileOutcome {
  int index = 0;
  int row = 0;
  int col = 0;
  bool ok = false;
  bool skippedEmpty = false;  ///< no pattern in the window; trivial mask
  int attempts = 0;
  int iterations = 0;
  int nonFiniteEvents = 0;
  int recoveries = 0;
  double seconds = 0.0;
  std::string error;  ///< last failure message (empty when ok)
  /// What the pattern cache had for this tile (kMiss when caching is off).
  CacheHitKind cacheHit = CacheHitKind::kMiss;
  bool fromCache = false;  ///< mask pasted verbatim from an exact hit
  bool warmStarted = false;  ///< optimized from a cached starting mask
  /// Scheduled in the representatives wave of a cache-aware run (first
  /// tile of its fingerprint equivalence class).
  bool representative = false;
};

/// What an ECO (incremental re-OPC) run learned from the base manifest.
struct EcoReport {
  bool active = false;     ///< ChipConfig::ecoBaseDir was set
  bool baseValid = false;  ///< base manifest found, parsed, and comparable
  int tilesTotal = 0;      ///< non-empty tiles considered
  int tilesChanged = 0;    ///< fingerprint differs from the base (or is new)
  int tilesUnchanged = 0;  ///< identical problem as the base run
  std::vector<int> changedTiles;  ///< indices into ChipPartition::tiles
};

/// A finished full-chip run.
struct ChipResult {
  ChipPartition partition;
  std::vector<TileOutcome> outcomes;  ///< same order as partition.tiles
  StitchResult stitched;
  BitGrid chipTarget;  ///< chip-grid rasterization of the input layout
  double wallSeconds = 0.0;
  double kernelSeconds = 0.0;  ///< window kernel build (warmKernels) wall
  int succeeded = 0;  ///< tiles that optimized (or were trivially empty)
  int failed = 0;     ///< tiles that fell back to the uncorrected pattern
  bool interrupted = false;  ///< cfg.cancel fired before the run finished
  bool cacheEnabled = false;        ///< a pattern store served this run
  bool cacheOrdered = false;        ///< representatives-first scheduling ran
  int representatives = 0;          ///< tiles optimized in the first wave
  PatternStoreStats cacheStats;     ///< store counters after the run
  EcoReport eco;                    ///< populated when ecoBaseDir was set

  [[nodiscard]] bool allOk() const { return failed == 0; }
};

/// Partition, optimize concurrently, stitch. The worker count is whatever
/// setParallelism() / the hardware default dictates; call setParallelism
/// first for explicit control. Every tile task runs under the caller's
/// trace context (telemetry::currentTraceId()), so tile spans, run-log
/// records and flight-recorder events correlate across the worker pool.
ChipResult optimizeChip(const Layout& chip, const ChipConfig& cfg);

}  // namespace mosaic
