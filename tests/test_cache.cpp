/// \file test_cache.cpp
/// Pattern-library mask cache: fingerprint canonicalization, the
/// persistent store (roundtrip, quarantine-and-recompute, LRU eviction,
/// concurrent hammering), the ECO fingerprint manifest and its concurrent
/// writers, and the end-to-end warm-chip / incremental re-OPC /
/// aborted-solve runs (docs/caching.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/manifest.hpp"
#include "cache/store.hpp"
#include "opc/mosaic.hpp"
#include "suite/testcases.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "tile/scheduler.hpp"

namespace mosaic {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch directory, wiped on entry so reruns start clean.
std::string freshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

// ------------------------------------------------------------- fingerprint

constexpr int kPixel = 16;
const RectNm kCore{128, 128, 640, 640};  // 512 nm core in a 768 nm window

Layout window768(const std::vector<RectNm>& rects) {
  Layout window;
  window.name = "win";
  window.sizeNm = 768;
  for (const RectNm& r : rects) window.addRect(r.x0, r.y0, r.x1, r.y1);
  return window;
}

std::vector<RectNm> shifted(std::vector<RectNm> rects, int dx, int dy) {
  for (RectNm& r : rects) {
    r.x0 += dx;
    r.x1 += dx;
    r.y0 += dy;
    r.y1 += dy;
  }
  return rects;
}

const std::vector<RectNm> kRects{{200, 200, 320, 280}, {400, 300, 460, 500}};

TEST(Fingerprint, WholePixelTranslationKeepsTheKey) {
  const std::uint64_t cfg = 0x1234u;
  const TileFingerprint a =
      fingerprintWindow(window768(kRects), kCore, kPixel, cfg);
  const TileFingerprint b = fingerprintWindow(
      window768(shifted(kRects, 2 * kPixel, kPixel)), kCore, kPixel, cfg);
  EXPECT_TRUE(a.sameKey(b));
  EXPECT_EQ(a.combined(), b.combined());
  // The placement difference lives in the anchor, not the hashes.
  EXPECT_EQ(b.anchorPxCol - a.anchorPxCol, 2);
  EXPECT_EQ(b.anchorPxRow - a.anchorPxRow, 1);
  EXPECT_FALSE(a == b);
}

TEST(Fingerprint, SubPixelShiftIsADifferentProblem) {
  const std::uint64_t cfg = 0x1234u;
  const TileFingerprint a =
      fingerprintWindow(window768(kRects), kCore, kPixel, cfg);
  const TileFingerprint b = fingerprintWindow(
      window768(shifted(kRects, kPixel / 2, 0)), kCore, kPixel, cfg);
  // Half-pixel phase rasterizes differently; the phase is folded into the
  // hashes, so this must not collide with the aligned placement.
  EXPECT_FALSE(a.sameKey(b));
}

TEST(Fingerprint, MovedCoreRectChangesTheCoreHash) {
  const std::uint64_t cfg = 0x1234u;
  std::vector<RectNm> moved = kRects;
  moved[1].x0 += 48;
  moved[1].x1 += 48;
  const TileFingerprint a =
      fingerprintWindow(window768(kRects), kCore, kPixel, cfg);
  const TileFingerprint b =
      fingerprintWindow(window768(moved), kCore, kPixel, cfg);
  EXPECT_NE(a.coreHash, b.coreHash);
  EXPECT_FALSE(a.sameCore(b));
  EXPECT_FALSE(a.sameKey(b));
}

TEST(Fingerprint, HaloOnlyEditIsANearMiss) {
  const std::uint64_t cfg = 0x1234u;
  std::vector<RectNm> withHalo = kRects;
  withHalo.push_back({0, 0, 64, 64});  // entirely outside the core
  const TileFingerprint a =
      fingerprintWindow(window768(kRects), kCore, kPixel, cfg);
  const TileFingerprint b =
      fingerprintWindow(window768(withHalo), kCore, kPixel, cfg);
  EXPECT_EQ(a.coreHash, b.coreHash);
  EXPECT_EQ(a.anchorPxRow, b.anchorPxRow);  // anchor from core content only
  EXPECT_EQ(a.anchorPxCol, b.anchorPxCol);
  EXPECT_NE(a.windowHash, b.windowHash);
  EXPECT_TRUE(a.sameCore(b));
  EXPECT_FALSE(a.sameKey(b));
}

TEST(Fingerprint, ConfigHashSeparatesOtherwiseEqualGeometry) {
  const TileFingerprint a =
      fingerprintWindow(window768(kRects), kCore, kPixel, 0x1111u);
  const TileFingerprint b =
      fingerprintWindow(window768(kRects), kCore, kPixel, 0x2222u);
  EXPECT_EQ(a.coreHash, b.coreHash);
  EXPECT_EQ(a.windowHash, b.windowHash);
  EXPECT_FALSE(a.sameKey(b));
  EXPECT_FALSE(a.sameCore(b));
}

TEST(Fingerprint, EmptyWindowIsFlagged) {
  const TileFingerprint fp =
      fingerprintWindow(window768({}), kCore, kPixel, 0x1u);
  EXPECT_TRUE(fp.empty);
  const TileFingerprint nonEmpty =
      fingerprintWindow(window768(kRects), kCore, kPixel, 0x1u);
  EXPECT_FALSE(nonEmpty.empty);
  EXPECT_NE(fp.combined(), nonEmpty.combined());
}

TEST(Fingerprint, IltDigestIgnoresTheDeadlineOnly) {
  const IltConfig base = defaultIltConfig(OpcMethod::kMosaicFast, kPixel);
  IltConfig withDeadline = base;
  withDeadline.deadlineSeconds = 42.0;
  // A wall-clock budget changes when a run stops, not what the converged
  // solution is — it must not fragment the cache key space.
  EXPECT_EQ(iltConfigDigest(base), iltConfigDigest(withDeadline));
  IltConfig moreIters = base;
  moreIters.maxIterations += 1;
  EXPECT_NE(iltConfigDigest(base), iltConfigDigest(moreIters));
}

TEST(Fingerprint, SolverDigestCoversMethodAndRaster) {
  const OpticsConfig optics;
  const IltConfig ilt = defaultIltConfig(OpcMethod::kMosaicFast, kPixel);
  const std::uint64_t d = solverConfigDigest(optics, ilt, 0, 1024, kPixel);
  EXPECT_NE(d, solverConfigDigest(optics, ilt, 1, 1024, kPixel));
  EXPECT_NE(d, solverConfigDigest(optics, ilt, 0, 2048, kPixel));
  EXPECT_NE(d, solverConfigDigest(optics, ilt, 0, 1024, kPixel * 2));
}

// --------------------------------------------------------------- shiftMask

TEST(ShiftMask, TranslatesContentAndFillsVacatedCells) {
  RealGrid g(3, 3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) g.at(r, c) = r * 3 + c;
  }
  const RealGrid out = shiftMask(g, 1, -1, 9.0);
  ASSERT_EQ(out.rows(), 3);
  ASSERT_EQ(out.cols(), 3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const int srcR = r - 1;
      const int srcC = c + 1;
      const bool inside = srcR >= 0 && srcR < 3 && srcC >= 0 && srcC < 3;
      EXPECT_EQ(out.at(r, c), inside ? g.at(srcR, srcC) : 9.0)
          << "at (" << r << "," << c << ")";
    }
  }
  // Zero shift is the identity.
  const RealGrid same = shiftMask(g, 0, 0, 9.0);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(same.data()[i], g.data()[i]);
  }
}

// ------------------------------------------------------------------- store

TileFingerprint fakeFp(std::uint64_t core, std::uint64_t window,
                       std::uint64_t config, int anchorRow = 0,
                       int anchorCol = 0) {
  TileFingerprint fp;
  fp.coreHash = core;
  fp.windowHash = window;
  fp.configHash = config;
  fp.anchorPxRow = anchorRow;
  fp.anchorPxCol = anchorCol;
  return fp;
}

RealGrid patternMask(int rows, int cols, double seed) {
  RealGrid mask(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) mask.at(r, c) = seed + r * cols + c;
  }
  return mask;
}

/// The single on-disk entry file of a store directory (excluding temp and
/// quarantined files). Fails the test when there is not exactly one.
std::string soleEntryPath(const std::string& dir) {
  std::string found;
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    if (!de.is_regular_file()) continue;
    const std::string name = de.path().filename().string();
    if (name.rfind("pat_", 0) == 0 && name.find(".bin") == name.size() - 4) {
      EXPECT_TRUE(found.empty()) << "more than one entry in " << dir;
      found = de.path().string();
    }
  }
  EXPECT_FALSE(found.empty()) << "no entry file in " << dir;
  return found;
}

int quarantineCount(const std::string& dir) {
  const fs::path qdir = fs::path(dir) / "quarantine";
  if (!fs::exists(qdir)) return 0;
  int n = 0;
  for (const fs::directory_entry& de : fs::directory_iterator(qdir)) {
    if (de.is_regular_file()) ++n;
  }
  return n;
}

TEST(PatternStore, RoundtripsAnExactHit) {
  PatternStore store({freshDir("mosaic_cache_roundtrip"), 0});
  const TileFingerprint fp = fakeFp(0xAAu, 0xBBu, 0xCCu, 3, 4);
  CachedSolution sol;
  sol.mask = patternMask(8, 8, 0.5);
  sol.iterations = 7;
  sol.objective = -1.25;
  EXPECT_TRUE(store.insert(fp, sol));
  EXPECT_FALSE(store.insert(fp, sol)) << "first solve must win";

  const CacheLookup hit = store.lookup(fp);
  ASSERT_EQ(hit.kind, CacheHitKind::kExact);
  EXPECT_EQ(hit.shiftPxRow, 0);
  EXPECT_EQ(hit.shiftPxCol, 0);
  EXPECT_EQ(hit.solution.iterations, 7);
  EXPECT_EQ(hit.solution.objective, -1.25);
  ASSERT_EQ(hit.solution.mask.rows(), 8);
  ASSERT_EQ(hit.solution.mask.cols(), 8);
  for (std::size_t i = 0; i < sol.mask.size(); ++i) {
    ASSERT_EQ(hit.solution.mask.data()[i], sol.mask.data()[i]);
  }

  const PatternStoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.exactHits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(PatternStore, TranslatedPlacementReportsTheShift) {
  PatternStore store({freshDir("mosaic_cache_translated"), 0});
  const TileFingerprint stored = fakeFp(0xAAu, 0xBBu, 0xCCu, 1, 1);
  CachedSolution sol;
  sol.mask = patternMask(8, 8, 0.0);
  ASSERT_TRUE(store.insert(stored, sol));

  const TileFingerprint query = fakeFp(0xAAu, 0xBBu, 0xCCu, 3, -2);
  const CacheLookup hit = store.lookup(query);
  ASSERT_EQ(hit.kind, CacheHitKind::kTranslated);
  EXPECT_EQ(hit.shiftPxRow, 2);    // query anchor minus stored anchor
  EXPECT_EQ(hit.shiftPxCol, -3);
  EXPECT_EQ(store.stats().translatedHits, 1u);
}

TEST(PatternStore, SameCoreDifferentHaloIsANearMiss) {
  PatternStore store({freshDir("mosaic_cache_nearmiss"), 0});
  CachedSolution sol;
  sol.mask = patternMask(8, 8, 2.0);
  ASSERT_TRUE(store.insert(fakeFp(0xAAu, 0xB1u, 0xCCu), sol));

  const CacheLookup near = store.lookup(fakeFp(0xAAu, 0xB2u, 0xCCu));
  EXPECT_EQ(near.kind, CacheHitKind::kNearMiss);
  // Same geometry under a different solver config must not match at all.
  const CacheLookup miss = store.lookup(fakeFp(0xAAu, 0xB1u, 0xDDu));
  EXPECT_EQ(miss.kind, CacheHitKind::kMiss);
  const PatternStoreStats stats = store.stats();
  EXPECT_EQ(stats.nearMissHits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PatternStore, ReopenedStoreIndexesExistingEntries) {
  const std::string dir = freshDir("mosaic_cache_reopen");
  const TileFingerprint fp = fakeFp(0x11u, 0x22u, 0x33u);
  CachedSolution sol;
  sol.mask = patternMask(8, 8, 4.0);
  sol.iterations = 3;
  {
    PatternStore store({dir, 0});
    ASSERT_TRUE(store.insert(fp, sol));
  }
  PatternStore reopened({dir, 0});
  EXPECT_EQ(reopened.stats().entries, 1);
  const CacheLookup hit = reopened.lookup(fp);
  ASSERT_EQ(hit.kind, CacheHitKind::kExact);
  EXPECT_EQ(hit.solution.iterations, 3);
}

TEST(PatternStore, CorruptPayloadIsQuarantinedAndRecomputed) {
  const std::string dir = freshDir("mosaic_cache_corrupt");
  PatternStore store({dir, 0});
  const TileFingerprint fp = fakeFp(0x77u, 0x88u, 0x99u);
  CachedSolution sol;
  sol.mask = patternMask(8, 8, 1.0);
  ASSERT_TRUE(store.insert(fp, sol));

  // Flip one payload byte behind the store's back: the header still parses,
  // so only the CRC can catch it.
  const std::string path = soleEntryPath(dir);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);
    const char poison = '\x5a';
    f.write(&poison, 1);
  }

  const CacheLookup poisoned = store.lookup(fp);
  EXPECT_EQ(poisoned.kind, CacheHitKind::kMiss);
  EXPECT_EQ(store.stats().quarantined, 1u);
  EXPECT_EQ(store.stats().entries, 0);
  EXPECT_EQ(quarantineCount(dir), 1) << "poisoned file must move, not stay";

  // Recompute-and-reinsert must succeed and hit again: the key is free.
  ASSERT_TRUE(store.insert(fp, sol));
  EXPECT_EQ(store.lookup(fp).kind, CacheHitKind::kExact);
}

TEST(PatternStore, TruncatedEntryIsQuarantinedOnScan) {
  const std::string dir = freshDir("mosaic_cache_truncated");
  const TileFingerprint fp = fakeFp(0x55u, 0x66u, 0x77u);
  {
    PatternStore store({dir, 0});
    CachedSolution sol;
    sol.mask = patternMask(8, 8, 3.0);
    ASSERT_TRUE(store.insert(fp, sol));
  }
  fs::resize_file(soleEntryPath(dir), 10);  // torn mid-header

  PatternStore reopened({dir, 0});
  EXPECT_EQ(reopened.stats().entries, 0);
  EXPECT_EQ(reopened.stats().quarantined, 1u);
  EXPECT_EQ(reopened.lookup(fp).kind, CacheHitKind::kMiss);
  EXPECT_EQ(quarantineCount(dir), 1);
}

TEST(PatternStore, ByteCapEvictsLeastRecentlyUsed) {
  // Learn the per-entry file size first, then cap the store at 3 entries.
  const std::string sizerDir = freshDir("mosaic_cache_sizer");
  long long entryBytes = 0;
  {
    PatternStore sizer({sizerDir, 0});
    CachedSolution sol;
    sol.mask = patternMask(8, 8, 0.0);
    ASSERT_TRUE(sizer.insert(fakeFp(1, 1, 1), sol));
    entryBytes = sizer.stats().bytes;
  }
  ASSERT_GT(entryBytes, 0);

  PatternStore store({freshDir("mosaic_cache_lru"), 3 * entryBytes});
  for (std::uint64_t k = 1; k <= 5; ++k) {
    CachedSolution sol;
    sol.mask = patternMask(8, 8, static_cast<double>(k));
    ASSERT_TRUE(store.insert(fakeFp(k, k, k), sol));
  }
  const PatternStoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_LE(stats.bytes, 3 * entryBytes);
  // Insertion order is the touch order: 1 and 2 are gone, 5 survives.
  EXPECT_EQ(store.lookup(fakeFp(1, 1, 1)).kind, CacheHitKind::kMiss);
  EXPECT_EQ(store.lookup(fakeFp(2, 2, 2)).kind, CacheHitKind::kMiss);
  EXPECT_EQ(store.lookup(fakeFp(5, 5, 5)).kind, CacheHitKind::kExact);
}

TEST(PatternStore, SurvivesAnEightThreadHammer) {
  PatternStore store({freshDir("mosaic_cache_hammer"), 0});
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  constexpr int kOpsPerThread = 200;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::uint64_t k = 1 + (op / 2 + t) % kKeys;
        const TileFingerprint fp = fakeFp(k, k * 31, k * 131);
        if (op % 2 == 0) {
          CachedSolution sol;
          sol.mask = patternMask(16, 16, static_cast<double>(k));
          sol.iterations = static_cast<int>(k);
          store.insert(fp, sol);  // losing the first-wins race is fine
        } else {
          const CacheLookup hit = store.lookup(fp);
          if (hit.kind == CacheHitKind::kExact) {
            // Entries are keyed by content: a hit must carry that key's
            // mask, never a torn or mismatched one.
            ASSERT_EQ(hit.solution.mask.at(0, 0), static_cast<double>(k));
            ASSERT_EQ(hit.solution.iterations, static_cast<int>(k));
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const PatternStoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, kKeys);
  EXPECT_EQ(stats.inserts, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.quarantined, 0u);
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    const CacheLookup hit = store.lookup(fakeFp(k, k * 31, k * 131));
    ASSERT_EQ(hit.kind, CacheHitKind::kExact) << "key " << k;
    EXPECT_EQ(hit.solution.mask.at(0, 0), static_cast<double>(k));
  }
}

// ---------------------------------------------------------------- manifest

TEST(Manifest, RoundtripsEntriesExactly) {
  const std::string dir = freshDir("mosaic_cache_manifest");
  fs::create_directories(dir);
  std::vector<ManifestEntry> entries(2);
  entries[0].coreXNm = 512;
  entries[0].coreYNm = 1024;
  entries[0].fp = fakeFp(0xdeadbeefcafebabeull, 0xffffffffffffffffull,
                         0x0123456789abcdefull, -3, 7);
  entries[1].coreXNm = 0;
  entries[1].coreYNm = 0;
  entries[1].fp.empty = true;

  const std::string path = manifestPath(dir);
  writeFingerprintManifest(path, entries);
  std::vector<ManifestEntry> back;
  ASSERT_TRUE(readFingerprintManifest(path, &back));
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].coreXNm, entries[i].coreXNm);
    EXPECT_EQ(back[i].coreYNm, entries[i].coreYNm);
    EXPECT_TRUE(back[i].fp == entries[i].fp) << "entry " << i;
  }
}

TEST(Manifest, MissingOrMalformedFileReadsAsInvalid) {
  const std::string dir = freshDir("mosaic_cache_badmanifest");
  fs::create_directories(dir);
  std::vector<ManifestEntry> out{ManifestEntry{}};
  EXPECT_FALSE(readFingerprintManifest(manifestPath(dir), &out));
  EXPECT_TRUE(out.empty());

  std::ofstream(manifestPath(dir)) << "not json at all\n";
  out.assign(1, ManifestEntry{});
  EXPECT_FALSE(readFingerprintManifest(manifestPath(dir), &out));
  EXPECT_TRUE(out.empty());
}

/// Concurrent writers of one manifest path (the same store shared by
/// several runs): every read sees one writer's complete manifest, no
/// write throws, and no temp file survives.
TEST(Manifest, ConcurrentWritersNeverTearIt) {
  const std::string dir = freshDir("mosaic_cache_manifest_race");
  fs::create_directories(dir);
  const std::string path = manifestPath(dir);
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  // Writer t publishes 4 * (t + 1) entries, each with core_x == t.
  std::vector<std::vector<ManifestEntry>> manifests(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int e = 0; e < 4 * (t + 1); ++e) {
      ManifestEntry entry;
      entry.coreXNm = t;
      entry.coreYNm = 512 * e;
      entry.fp = fakeFp(0x1000u + t, 0x2000u + e, 0x3000u);
      manifests[t].push_back(entry);
    }
  }
  const auto isComplete = [&](const std::vector<ManifestEntry>& read) {
    if (read.empty() || read[0].coreXNm < 0 || read[0].coreXNm >= kThreads) {
      return false;
    }
    const std::vector<ManifestEntry>& want = manifests[read[0].coreXNm];
    if (read.size() != want.size()) return false;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (read[i].coreXNm != want[i].coreXNm ||
          read[i].coreYNm != want[i].coreYNm || !(read[i].fp == want[i].fp)) {
        return false;
      }
    }
    return true;
  };
  std::atomic<int> throws{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        try {
          writeFingerprintManifest(path, manifests[t]);
        } catch (const std::exception&) {
          throws.fetch_add(1);
        }
        std::vector<ManifestEntry> read;
        if (!readFingerprintManifest(path, &read) || !isComplete(read)) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(throws.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  std::vector<ManifestEntry> last;
  ASSERT_TRUE(readFingerprintManifest(path, &last));
  EXPECT_TRUE(isComplete(last));
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    EXPECT_EQ(de.path().filename().string(), "fingerprints.jsonl")
        << "left behind: " << de.path();
  }
}

// ----------------------------------------------------- end-to-end chip runs

std::string sharedKernelCache() {
  static const std::string dir =
      ::testing::TempDir() + "mosaic_cache_kernels";
  return dir;
}

ChipConfig cachedChipConfig(const std::string& storeDir) {
  ChipConfig cfg;
  cfg.tiling.tileSizeNm = 512;
  cfg.tiling.haloNm = 128;
  cfg.tiling.pixelNm = 16;
  cfg.method = OpcMethod::kMosaicFast;
  cfg.iterations = 2;
  cfg.backoffMs = 1;
  cfg.kernelCacheDir = sharedKernelCache();
  cfg.patternCacheDir = storeDir;
  return cfg;
}

/// The warm-reuse acceptance run: a second identical chip run must serve
/// every non-empty tile from the store and stitch a bit-identical mask.
TEST(CacheChip, WarmRunIsAllExactHitsAndBitIdentical) {
  const Layout chip = replicateLayout(buildTestcase(1), 2, 2);
  const ChipConfig cfg = cachedChipConfig(freshDir("mosaic_cache_chip"));

  const ChipResult cold = optimizeChip(chip, cfg);
  ASSERT_TRUE(cold.allOk());
  ASSERT_TRUE(cold.cacheEnabled);
  EXPECT_GT(cold.cacheStats.inserts, 0u);

  const ChipResult warm = optimizeChip(chip, cfg);
  ASSERT_TRUE(warm.allOk());

  std::uint64_t nonEmpty = 0;
  for (const TileOutcome& outcome : warm.outcomes) {
    if (outcome.skippedEmpty) continue;
    ++nonEmpty;
    EXPECT_TRUE(outcome.fromCache)
        << "tile (" << outcome.row << "," << outcome.col << ")";
    EXPECT_EQ(outcome.cacheHit, CacheHitKind::kExact);
  }
  ASSERT_GT(nonEmpty, 0u);
  EXPECT_EQ(warm.cacheStats.exactHits, nonEmpty);
  EXPECT_EQ(warm.cacheStats.misses, 0u);
  EXPECT_EQ(warm.cacheStats.hitRate(), 1.0);

  const BitGrid& a = cold.stitched.maskBinary;
  const BitGrid& b = warm.stitched.maskBinary;
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "stitched masks diverge at " << i;
  }
}

/// The ECO acceptance run: after editing one rect, an --eco-base run must
/// re-optimize only the tiles whose windows the edit touches; every other
/// non-empty tile comes straight from the base run's store.
TEST(CacheChip, EcoRunReoptimizesOnlyChangedTiles) {
  const Layout base = replicateLayout(buildTestcase(1), 2, 2);
  const std::string storeDir = freshDir("mosaic_cache_eco");
  const ChipConfig baseCfg = cachedChipConfig(storeDir);
  const ChipResult baseRun = optimizeChip(base, baseCfg);
  ASSERT_TRUE(baseRun.allOk());

  // The revision: nudge one rect by two pixels (stay inside the chip).
  Layout revised = base;
  ASSERT_FALSE(revised.rects.empty());
  std::size_t edited = revised.rects.size();
  for (std::size_t i = 0; i < revised.rects.size(); ++i) {
    if (revised.rects[i].x1 + 32 <= revised.sizeNm) {
      edited = i;
      break;
    }
  }
  ASSERT_LT(edited, revised.rects.size());
  revised.rects[edited].x0 += 32;
  revised.rects[edited].x1 += 32;

  ChipConfig ecoCfg = cachedChipConfig("");
  ecoCfg.ecoBaseDir = storeDir;
  const ChipResult eco = optimizeChip(revised, ecoCfg);
  ASSERT_TRUE(eco.allOk());
  ASSERT_TRUE(eco.eco.active);
  EXPECT_TRUE(eco.eco.baseValid);
  EXPECT_EQ(eco.eco.tilesTotal, eco.partition.tileCount());
  EXPECT_EQ(eco.eco.tilesChanged + eco.eco.tilesUnchanged,
            eco.eco.tilesTotal);
  EXPECT_GT(eco.eco.tilesChanged, 0);
  EXPECT_LT(eco.eco.tilesChanged, eco.eco.tilesTotal)
      << "a 2-pixel edit must not invalidate the whole chip";

  const std::set<int> changed(eco.eco.changedTiles.begin(),
                              eco.eco.changedTiles.end());
  std::uint64_t unchangedNonEmpty = 0;
  std::uint64_t changedNonEmpty = 0;
  for (std::size_t i = 0; i < eco.outcomes.size(); ++i) {
    const TileOutcome& outcome = eco.outcomes[i];
    if (outcome.skippedEmpty) continue;
    if (changed.count(static_cast<int>(i)) != 0) {
      ++changedNonEmpty;
      EXPECT_FALSE(outcome.fromCache)
          << "changed tile (" << outcome.row << "," << outcome.col
          << ") must re-optimize";
    } else {
      ++unchangedNonEmpty;
      EXPECT_TRUE(outcome.fromCache)
          << "unchanged tile (" << outcome.row << "," << outcome.col
          << ") must come from the base store";
      EXPECT_EQ(outcome.cacheHit, CacheHitKind::kExact);
    }
  }
  // The miss/warm-start counters are the audit trail: exactly the changed
  // non-empty tiles re-optimized, everything else exact-hit.
  EXPECT_EQ(eco.cacheStats.exactHits, unchangedNonEmpty);
  EXPECT_EQ(eco.cacheStats.misses + eco.cacheStats.nearMissHits +
                eco.cacheStats.translatedHits,
            changedNonEmpty);
}


/// An aborted solve is not the answer to its key: a chip whose every tile
/// aborts on non-finite objectives publishes nothing, so a clean rerun on
/// that store optimizes every tile and stitches the fresh-store mask.
TEST(CacheChip, AbortedSolvesAreNotPublished) {
  setParallelism(1);  // serial waves: warm starts are run-to-run stable
  const Layout chip = replicateLayout(buildTestcase(1), 2, 2);
  const std::string storeDir = freshDir("mosaic_cache_poisoned");
  const ChipConfig cfg = cachedChipConfig(storeDir);
  {
    failpoint::ScopedFailpoints nan("objective.evaluate:nan");
    const ChipResult poisoned = optimizeChip(chip, cfg);
    for (const TileOutcome& outcome : poisoned.outcomes) {
      if (!outcome.skippedEmpty) {
        EXPECT_EQ(outcome.iterations, 0);
      }
    }
    EXPECT_EQ(poisoned.cacheStats.inserts, 0u);
    EXPECT_EQ(poisoned.cacheStats.entries, 0);
  }
  const ChipResult rerun = optimizeChip(chip, cfg);
  const ChipResult fresh =
      optimizeChip(chip, cachedChipConfig(freshDir("mosaic_cache_unpoisoned")));
  setParallelism(0);
  ASSERT_TRUE(rerun.allOk());
  ASSERT_TRUE(fresh.allOk());
  EXPECT_EQ(rerun.cacheStats.exactHits, fresh.cacheStats.exactHits);
  EXPECT_EQ(rerun.cacheStats.inserts, fresh.cacheStats.inserts);
  const BitGrid& a = rerun.stitched.maskBinary;
  const BitGrid& b = fresh.stitched.maskBinary;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "stitched masks diverge at " << i;
  }
}

}  // namespace
}  // namespace mosaic
