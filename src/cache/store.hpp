#pragma once
/// \file store.hpp
/// Persistent pattern-library store: solved tile masks keyed by
/// TileFingerprint (docs/caching.md).
///
/// On disk, one entry is one versioned binary file `pat_<key>.bin` in the
/// store directory: a header carrying the full fingerprint and solution
/// metadata, a CRC-32 of the mask payload, then the mask doubles. Files
/// are published atomically (writeFileAtomically: a sibling temp file,
/// then a rename), so concurrent readers — including other processes
/// sharing the directory — never observe a torn entry. Anything that fails
/// validation on read (bad magic, version skew, CRC mismatch, truncation,
/// trailing bytes) is moved into a `quarantine/` subdirectory and the
/// lookup reports a miss, so the caller recomputes and the poisoned file
/// never resurfaces: the same hardened-checkpoint discipline as
/// opc/checkpoint.cpp.
///
/// In memory, the store keeps only an index (fingerprints, paths, sizes,
/// LRU stamps) sharded over independently locked maps; masks live on disk
/// and are read per hit, so memory stays bounded no matter how large the
/// library grows. A byte-size cap evicts least-recently-used entries.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/fingerprint.hpp"
#include "math/grid.hpp"
#include "opc/mosaic.hpp"

namespace mosaic {

/// One solved mask plus the provenance the scheduler wants back.
struct CachedSolution {
  RealGrid mask;  ///< two-level mask on the window grid
  int iterations = 0;     ///< iterations the original solve spent
  double objective = 0.0;  ///< best objective the original solve reached
};

/// What a lookup found.
enum class CacheHitKind {
  kMiss,        ///< nothing usable; optimize from scratch and insert
  kExact,       ///< same problem, same placement: paste the mask verbatim
  kTranslated,  ///< same problem shifted by whole pixels: warm-start from
                ///< the shifted mask
  kNearMiss,    ///< same core, different halo: warm-start from the mask
};

[[nodiscard]] const char* cacheHitKindName(CacheHitKind kind);

struct CacheLookup {
  CacheHitKind kind = CacheHitKind::kMiss;
  CachedSolution solution;  ///< valid unless kind == kMiss
  /// Pixel shift that maps the cached mask into the query's frame (apply
  /// with shiftMask). Zero for kExact by definition.
  int shiftPxRow = 0;
  int shiftPxCol = 0;
};

struct PatternStoreConfig {
  std::string dir;  ///< store directory (created if absent). Required.
  /// Byte cap on the sum of entry files; exceeding it evicts LRU entries.
  /// 0 = unlimited.
  long long maxBytes = 512ll << 20;
};

/// Point-in-time store counters (process-lifetime; the same numbers feed
/// the cache.* metrics).
struct PatternStoreStats {
  long long entries = 0;
  long long bytes = 0;
  std::uint64_t exactHits = 0;
  std::uint64_t translatedHits = 0;
  std::uint64_t nearMissHits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t quarantined = 0;

  [[nodiscard]] std::uint64_t hits() const {
    return exactHits + translatedHits + nearMissHits;
  }
  [[nodiscard]] double hitRate() const {
    const std::uint64_t total = hits() + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits()) / total;
  }
};

/// Concurrent, persistent fingerprint -> solved-mask store.
class PatternStore {
 public:
  /// Opens (and if needed creates) the store directory and indexes every
  /// valid entry already present; corrupt files found during the scan are
  /// quarantined immediately.
  explicit PatternStore(const PatternStoreConfig& cfg);

  PatternStore(const PatternStore&) = delete;
  PatternStore& operator=(const PatternStore&) = delete;

  /// Find the best available solution for a fingerprint: exact key match
  /// first (same placement, then translated), near-miss (same core +
  /// config, different halo) second. Reads the mask from disk; a file
  /// that fails validation is quarantined and the next-best candidate (or
  /// a miss) is returned. Thread-safe.
  [[nodiscard]] CacheLookup lookup(const TileFingerprint& fp);

  /// Publish a solved mask under a fingerprint. Returns false when an
  /// entry with the same key already exists (first solve wins — the entry
  /// is deterministic, so overwriting buys nothing). Thread-safe.
  bool insert(const TileFingerprint& fp, const CachedSolution& solution);

  [[nodiscard]] PatternStoreStats stats() const;
  [[nodiscard]] const std::string& dir() const { return cfg_.dir; }

  /// Serialization format version (bumped on any layout change; old files
  /// quarantine on sight rather than being migrated).
  static constexpr std::uint32_t kFormatVersion = 1;

 private:
  struct Entry {
    TileFingerprint fp;
    std::string path;
    long long bytes = 0;
    std::uint64_t lastTouch = 0;
  };
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::uint64_t, Entry> entries;  ///< by TileFingerprint::combined
    /// (coreHash ^ configHash) -> combined keys, for near-miss lookup.
    std::multimap<std::uint64_t, std::uint64_t> byCore;
  };

  [[nodiscard]] Shard& shardFor(std::uint64_t combinedKey) {
    return shards_[combinedKey % kShards];
  }
  [[nodiscard]] static std::uint64_t coreIndexKey(const TileFingerprint& fp);
  void indexEntry(const Entry& entry);
  /// Drop an entry from the index and move its file to quarantine/.
  void quarantineEntry(std::uint64_t combinedKey, const std::string& path);
  void removeFromIndexLocked(Shard& shard, std::uint64_t combinedKey);
  void evictToCap();
  void scanDirectory();

  PatternStoreConfig cfg_;
  std::array<Shard, kShards> shards_;
  std::mutex evictMutex_;  ///< serializes LRU victim selection
  std::atomic<long long> totalBytes_{0};
  std::atomic<std::uint64_t> clock_{1};
  std::atomic<std::uint64_t> quarantineSeq_{0};

  std::atomic<std::uint64_t> exactHits_{0};
  std::atomic<std::uint64_t> translatedHits_{0};
  std::atomic<std::uint64_t> nearMissHits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> quarantined_{0};
};

/// Translate a mask by whole pixels, filling vacated cells with `fill`
/// (the mask background level). Positive shifts move content toward
/// higher rows/columns.
[[nodiscard]] RealGrid shiftMask(const RealGrid& mask, int dRow, int dCol,
                                 double fill);

/// What a solver's consult found. For any hit, `solution.mask` is in the
/// query's frame: an exact hit pastes it, a translated or near-miss hit
/// descends from it (OptimizeOptions::warmStartMask).
struct StoreConsult {
  CacheHitKind kind = CacheHitKind::kMiss;
  CachedSolution solution;
};

/// The one way the tile scheduler and the serve workers consult the store
/// before solving `target` under `*cfg`: an entry whose mask shape differs
/// from the target's is a miss; a translated or near-miss hit is shifted
/// into frame and cuts cfg->maxIterations to the warm-start budget, a
/// quarter of the cold one and at least 2.
[[nodiscard]] StoreConsult consultStore(PatternStore& store,
                                        const TileFingerprint& fp,
                                        const BitGrid& target, IltConfig* cfg);

/// Publish a finished solve under `fp` if it converged or ran its full
/// budget: a deadline-cut, aborted or canceled solve is not the answer to
/// the key. The entry records the solve's best objective. Returns true
/// when an entry was inserted.
bool publishSolve(PatternStore& store, const TileFingerprint& fp,
                  const OpcResult& result);

}  // namespace mosaic
