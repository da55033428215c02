#include "cache/store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <system_error>
#include <thread>

#include "support/atomic_file.hpp"
#include "support/binary_io.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace mosaic {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x4d4f5350u;  // "MOSP"
constexpr const char* kEntryFormat = "pattern store entry";

// A window mask is at most a few thousand pixels on a side; larger
// dimensions are corrupt length bytes, not data.
constexpr std::int32_t kMaxGridSide = 1 << 14;

/// CRC-32 (IEEE 802.3, reflected) over a byte range. Detects the torn and
/// bit-rotted payloads that magic/length checks alone cannot.
std::uint32_t crc32(const void* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Header of one entry file, as read back. Kept separate from the payload
/// so the startup scan can index a directory without touching mask bytes.
struct EntryHeader {
  TileFingerprint fp;
  std::int32_t iterations = 0;
  double objective = 0.0;
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  std::uint32_t payloadCrc = 0;
};

/// Read + validate an entry header. Throws FormatError on any malformation.
EntryHeader readHeader(BinaryReader& in) {
  if (in.get<std::uint32_t>() != kMagic) in.fail("bad magic");
  if (in.get<std::uint32_t>() != PatternStore::kFormatVersion) {
    in.fail("unsupported version");
  }
  EntryHeader h;
  h.fp.coreHash = in.get<std::uint64_t>();
  h.fp.windowHash = in.get<std::uint64_t>();
  h.fp.configHash = in.get<std::uint64_t>();
  h.fp.anchorPxRow = in.get<std::int32_t>();
  h.fp.anchorPxCol = in.get<std::int32_t>();
  const auto emptyFlag = in.get<std::uint32_t>();
  h.iterations = in.get<std::int32_t>();
  h.objective = in.get<double>();
  h.rows = in.get<std::int32_t>();
  h.cols = in.get<std::int32_t>();
  h.payloadCrc = in.get<std::uint32_t>();
  if (emptyFlag > 1 || h.rows <= 0 || h.cols <= 0 || h.rows > kMaxGridSide ||
      h.cols > kMaxGridSide || h.iterations < 0) {
    in.fail("implausible header");
  }
  h.fp.empty = emptyFlag != 0;
  return h;
}

/// Full load: header + payload + CRC + exact-length check. Returns nullopt
/// on any malformation.
std::optional<std::pair<EntryHeader, RealGrid>> readEntryFile(
    const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  try {
    BinaryReader in(file, kEntryFormat);
    const EntryHeader header = readHeader(in);
    RealGrid mask(header.rows, header.cols);
    in.getDoubles(mask.data(), mask.size());
    in.expectEnd();
    if (crc32(mask.data(), mask.size() * sizeof(double)) !=
        header.payloadCrc) {
      return std::nullopt;
    }
    return std::make_pair(header, std::move(mask));
  } catch (const FormatError&) {
    return std::nullopt;
  }
}

std::string entryFileName(const TileFingerprint& fp) {
  return "pat_" + fp.keyHex() + ".bin";
}

}  // namespace

const char* cacheHitKindName(CacheHitKind kind) {
  switch (kind) {
    case CacheHitKind::kMiss:
      return "miss";
    case CacheHitKind::kExact:
      return "exact";
    case CacheHitKind::kTranslated:
      return "translated";
    case CacheHitKind::kNearMiss:
      return "near_miss";
  }
  return "unknown";
}

RealGrid shiftMask(const RealGrid& mask, int dRow, int dCol, double fill) {
  if (dRow == 0 && dCol == 0) return mask;
  RealGrid out(mask.rows(), mask.cols(), fill);
  const int r0 = std::max(0, dRow);
  const int r1 = std::min(mask.rows(), mask.rows() + dRow);
  const int c0 = std::max(0, dCol);
  const int c1 = std::min(mask.cols(), mask.cols() + dCol);
  for (int r = r0; r < r1; ++r) {
    for (int c = c0; c < c1; ++c) {
      out(r, c) = mask(r - dRow, c - dCol);
    }
  }
  return out;
}

std::uint64_t PatternStore::coreIndexKey(const TileFingerprint& fp) {
  return Fnv1a().mix(fp.coreHash).mix(fp.configHash).digest();
}

PatternStore::PatternStore(const PatternStoreConfig& cfg) : cfg_(cfg) {
  MOSAIC_CHECK(!cfg_.dir.empty(), "pattern store needs a directory");
  MOSAIC_CHECK(cfg_.maxBytes >= 0, "pattern store size cap must be >= 0");
  fs::create_directories(cfg_.dir);
  scanDirectory();
}

void PatternStore::scanDirectory() {
  // Index whatever a previous run (or another process) left behind. Only
  // headers are read; payload CRCs are checked lazily on first hit. The
  // initial LRU order follows file modification time, so a cap-shrinking
  // restart evicts the oldest solutions first.
  struct Found {
    fs::file_time_type mtime;
    Entry entry;
  };
  std::vector<Found> found;
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(cfg_.dir, ec)) {
    if (!de.is_regular_file()) continue;
    const std::string name = de.path().filename().string();
    if (name.rfind("pat_", 0) != 0 ||
        name.find(".bin") != name.size() - 4) {
      continue;
    }
    const std::string path = de.path().string();
    std::optional<EntryHeader> header;
    try {
      std::ifstream file(path, std::ios::binary);
      BinaryReader in(file, kEntryFormat);
      header = readHeader(in);
    } catch (const FormatError&) {
    }
    if (!header) {
      LOG_WARN("pattern store: quarantining unreadable entry " << name);
      quarantineEntry(0, path);
      continue;
    }
    Entry entry;
    entry.fp = header->fp;
    entry.path = path;
    entry.bytes = static_cast<long long>(de.file_size(ec));
    found.push_back({de.last_write_time(ec), std::move(entry)});
  }
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) { return a.mtime < b.mtime; });
  for (Found& f : found) {
    f.entry.lastTouch = clock_.fetch_add(1, std::memory_order_relaxed);
    totalBytes_.fetch_add(f.entry.bytes, std::memory_order_relaxed);
    indexEntry(f.entry);
  }
  evictToCap();
}

void PatternStore::indexEntry(const Entry& entry) {
  const std::uint64_t key = entry.fp.combined();
  {
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries[key] = entry;
  }
  const std::uint64_t coreKey = coreIndexKey(entry.fp);
  Shard& coreShard = shardFor(coreKey);
  std::lock_guard<std::mutex> lock(coreShard.mutex);
  coreShard.byCore.emplace(coreKey, key);
}

void PatternStore::removeFromIndexLocked(Shard& shard,
                                         std::uint64_t combinedKey) {
  shard.entries.erase(combinedKey);
}

void PatternStore::quarantineEntry(std::uint64_t combinedKey,
                                   const std::string& path) {
  if (combinedKey != 0) {
    Shard& shard = shardFor(combinedKey);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(combinedKey);
    if (it != shard.entries.end()) {
      totalBytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
      shard.entries.erase(it);
    }
    // The byCore side is cleaned up lazily: near-miss resolution skips
    // keys whose entry is gone.
  }
  std::error_code ec;
  const fs::path src(path);
  const fs::path qdir = fs::path(cfg_.dir) / "quarantine";
  fs::create_directories(qdir, ec);
  const std::string unique =
      src.filename().string() + "." +
      std::to_string(quarantineSeq_.fetch_add(1, std::memory_order_relaxed));
  fs::rename(src, qdir / unique, ec);
  if (ec) fs::remove(src, ec);  // cross-device or permission trouble
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  telemetry::metrics().counter("cache.quarantined").add();
}

CacheLookup PatternStore::lookup(const TileFingerprint& fp) {
  MOSAIC_SPAN("cache.lookup");
  WallTimer timer;
  CacheLookup result;

  // Exact key (possibly translated placement) first.
  const std::uint64_t key = fp.combined();
  for (;;) {
    Entry candidate;
    bool have = false;
    {
      Shard& shard = shardFor(key);
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.entries.find(key);
      if (it != shard.entries.end() && it->second.fp.sameKey(fp)) {
        it->second.lastTouch = clock_.fetch_add(1, std::memory_order_relaxed);
        candidate = it->second;
        have = true;
      }
    }
    if (!have) break;
    const auto loaded = readEntryFile(candidate.path);
    if (!loaded || !loaded->first.fp.sameKey(fp)) {
      LOG_WARN("pattern store: corrupt entry " << candidate.path
                                               << ", quarantining");
      quarantineEntry(key, candidate.path);
      continue;  // the index no longer holds the key; falls through below
    }
    result.solution.mask = std::move(loaded->second);
    result.solution.iterations = loaded->first.iterations;
    result.solution.objective = loaded->first.objective;
    result.shiftPxRow = fp.anchorPxRow - loaded->first.fp.anchorPxRow;
    result.shiftPxCol = fp.anchorPxCol - loaded->first.fp.anchorPxCol;
    if (result.shiftPxRow == 0 && result.shiftPxCol == 0) {
      result.kind = CacheHitKind::kExact;
      exactHits_.fetch_add(1, std::memory_order_relaxed);
      telemetry::metrics().counter("cache.hit").add();
    } else {
      result.kind = CacheHitKind::kTranslated;
      translatedHits_.fetch_add(1, std::memory_order_relaxed);
      telemetry::metrics().counter("cache.hit").add();
      telemetry::metrics().counter("cache.warm_start").add();
    }
    telemetry::metrics().histogram("cache.lookup_ms").record(
        timer.seconds() * 1e6);
    return result;
  }

  // Near miss: same core and solver, different halo. Prefer the most
  // recently used candidate.
  const std::uint64_t coreKey = coreIndexKey(fp);
  std::vector<std::uint64_t> candidates;
  {
    Shard& coreShard = shardFor(coreKey);
    std::lock_guard<std::mutex> lock(coreShard.mutex);
    const auto range = coreShard.byCore.equal_range(coreKey);
    for (auto it = range.first; it != range.second; ++it) {
      candidates.push_back(it->second);
    }
  }
  std::vector<std::pair<std::uint64_t, Entry>> live;  // (lastTouch, entry)
  for (const std::uint64_t candidateKey : candidates) {
    Shard& shard = shardFor(candidateKey);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(candidateKey);
    if (it == shard.entries.end() || !it->second.fp.sameCore(fp)) continue;
    live.emplace_back(it->second.lastTouch, it->second);
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (auto& [touch, entry] : live) {
    const auto loaded = readEntryFile(entry.path);
    if (!loaded || !loaded->first.fp.sameCore(fp)) {
      LOG_WARN("pattern store: corrupt entry " << entry.path
                                               << ", quarantining");
      quarantineEntry(entry.fp.combined(), entry.path);
      continue;
    }
    {
      Shard& shard = shardFor(entry.fp.combined());
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.entries.find(entry.fp.combined());
      if (it != shard.entries.end()) {
        it->second.lastTouch = clock_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    result.kind = CacheHitKind::kNearMiss;
    result.solution.mask = std::move(loaded->second);
    result.solution.iterations = loaded->first.iterations;
    result.solution.objective = loaded->first.objective;
    result.shiftPxRow = fp.anchorPxRow - loaded->first.fp.anchorPxRow;
    result.shiftPxCol = fp.anchorPxCol - loaded->first.fp.anchorPxCol;
    nearMissHits_.fetch_add(1, std::memory_order_relaxed);
    telemetry::metrics().counter("cache.warm_start").add();
    telemetry::metrics().histogram("cache.lookup_ms").record(
        timer.seconds() * 1e6);
    return result;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  telemetry::metrics().counter("cache.miss").add();
  telemetry::metrics().histogram("cache.lookup_ms").record(timer.seconds() *
                                                           1e6);
  return result;
}

bool PatternStore::insert(const TileFingerprint& fp,
                          const CachedSolution& solution) {
  MOSAIC_SPAN("cache.insert");
  MOSAIC_CHECK(!solution.mask.empty(), "cannot cache an empty mask");
  MOSAIC_CHECK(solution.mask.rows() <= kMaxGridSide &&
                   solution.mask.cols() <= kMaxGridSide,
               "mask too large for the pattern store");
  const std::uint64_t key = fp.combined();
  {
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.entries.count(key) != 0) return false;  // first solve wins
  }

  // Atomic publication: readers, including other processes sharing the
  // directory, see no entry or the complete one, never a torn file.
  const fs::path finalPath = fs::path(cfg_.dir) / entryFileName(fp);
  writeFileAtomically(finalPath.string(), [&](std::ostream& stream) {
    BinaryWriter out(stream);
    out.put(kMagic);
    out.put(kFormatVersion);
    out.put(fp.coreHash);
    out.put(fp.windowHash);
    out.put(fp.configHash);
    out.put<std::int32_t>(fp.anchorPxRow);
    out.put<std::int32_t>(fp.anchorPxCol);
    out.put<std::uint32_t>(fp.empty ? 1u : 0u);
    out.put<std::int32_t>(solution.iterations);
    out.put(solution.objective);
    out.put<std::int32_t>(solution.mask.rows());
    out.put<std::int32_t>(solution.mask.cols());
    out.put(crc32(solution.mask.data(),
                  solution.mask.size() * sizeof(double)));
    out.putDoubles(solution.mask.data(), solution.mask.size());
  });

  std::error_code ec;
  Entry entry;
  entry.fp = fp;
  entry.path = finalPath.string();
  entry.bytes = static_cast<long long>(fs::file_size(finalPath, ec));
  entry.lastTouch = clock_.fetch_add(1, std::memory_order_relaxed);
  bool raced = false;
  {
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    raced = !shard.entries.emplace(key, entry).second;
  }
  if (!raced) {
    totalBytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
    const std::uint64_t coreKey = coreIndexKey(fp);
    Shard& coreShard = shardFor(coreKey);
    {
      std::lock_guard<std::mutex> lock(coreShard.mutex);
      coreShard.byCore.emplace(coreKey, key);
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
    telemetry::metrics().counter("cache.insert").add();
  }
  evictToCap();
  return !raced;
}

void PatternStore::evictToCap() {
  if (cfg_.maxBytes <= 0) return;
  std::lock_guard<std::mutex> evictLock(evictMutex_);
  while (totalBytes_.load(std::memory_order_relaxed) > cfg_.maxBytes) {
    // Victim = globally least-recently-touched entry. A linear sweep over
    // the index is fine: eviction is rare (cap overflow only) and the
    // index holds metadata, not masks.
    std::uint64_t victimKey = 0;
    std::uint64_t victimTouch = ~0ull;
    bool found = false;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const auto& [k, e] : shard.entries) {
        if (e.lastTouch < victimTouch) {
          victimTouch = e.lastTouch;
          victimKey = k;
          found = true;
        }
      }
    }
    if (!found) break;
    Entry victim;
    {
      Shard& shard = shardFor(victimKey);
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.entries.find(victimKey);
      if (it == shard.entries.end()) continue;
      victim = it->second;
      shard.entries.erase(it);
    }
    totalBytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    std::error_code ec;
    fs::remove(victim.path, ec);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    telemetry::metrics().counter("cache.evict").add();
    LOG_DEBUG("pattern store: evicted " << victim.path << " ("
                                        << victim.bytes << " bytes)");
  }
}

StoreConsult consultStore(PatternStore& store, const TileFingerprint& fp,
                          const BitGrid& target, IltConfig* cfg) {
  CacheLookup hit = store.lookup(fp);
  StoreConsult consult;
  if (hit.kind == CacheHitKind::kMiss) return consult;
  if (hit.solution.mask.rows() != target.rows() ||
      hit.solution.mask.cols() != target.cols()) {
    // The raster geometry is in the config hash: a foreign-shape entry is
    // damaged or not ours, so distrust it.
    LOG_WARN("pattern store: entry " << fp.keyHex()
                                     << " has the wrong shape; ignoring it");
    return consult;
  }
  consult.kind = hit.kind;
  consult.solution = std::move(hit.solution);
  if (hit.kind != CacheHitKind::kExact) {
    consult.solution.mask = shiftMask(consult.solution.mask, hit.shiftPxRow,
                                      hit.shiftPxCol, cfg->maskLow);
    cfg->maxIterations = std::max(2, cfg->maxIterations / 4);
  }
  return consult;
}

bool publishSolve(PatternStore& store, const TileFingerprint& fp,
                  const OpcResult& result) {
  if (result.stopReason != StopReason::kConverged &&
      result.stopReason != StopReason::kMaxIterations) {
    return false;
  }
  return store.insert(fp, {result.maskTwoLevel, result.iterations,
                           result.bestObjective});
}

PatternStoreStats PatternStore::stats() const {
  PatternStoreStats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    s.entries += static_cast<long long>(shard.entries.size());
  }
  s.bytes = totalBytes_.load(std::memory_order_relaxed);
  s.exactHits = exactHits_.load(std::memory_order_relaxed);
  s.translatedHits = translatedHits_.load(std::memory_order_relaxed);
  s.nearMissHits = nearMissHits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mosaic
