/// \file checkpoint.cpp
/// Versioned binary serialization of the optimizer state (optimizer.hpp's
/// OptimizerCheckpoint). Doubles are stored verbatim so a resumed run
/// continues bit-identically. Files are host-endian: checkpoints are local
/// crash-recovery artifacts, not an interchange format.
///
/// Loading is corruption-proof by construction: every read is bounds- and
/// plausibility-checked and any violation — truncation, garbage bytes,
/// version mismatch, implausible shapes, trailing data — throws the typed
/// CheckpointError instead of crashing or silently resuming from poisoned
/// state. Recovery paths (tile scheduler, serve workers) catch it and
/// restart the job from scratch.

#include <cstdint>
#include <fstream>
#include <new>

#include "opc/optimizer.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "support/telemetry/trace.hpp"

namespace mosaic {
namespace {

constexpr std::uint32_t kMagic = 0x4d4f4350u;  // "MOCP"
// v2: IterationRecord gained wallMs. Older files are rejected, not migrated:
// checkpoints are crash-recovery artifacts tied to the writing binary.
constexpr std::uint32_t kVersion = 2;

// A checkpoint grid is an optimizer-window P-grid or mask; anything larger
// than this is corrupt length bytes, not data (also caps the allocation a
// garbage file can trigger to ~128 MiB before the product check below).
constexpr std::int32_t kMaxGridSide = 1 << 14;

[[noreturn]] void failCheckpoint(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

void checkCkpt(bool ok, const char* what) {
  if (!ok) failCheckpoint(what);
}

void writeU32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void writeI32(std::ostream& out, std::int32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void writeF64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t readU32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  checkCkpt(in.good(), "truncated file");
  return v;
}

std::int32_t readI32(std::istream& in) {
  std::int32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  checkCkpt(in.good(), "truncated file");
  return v;
}

double readF64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  checkCkpt(in.good(), "truncated file");
  return v;
}

void writeGrid(std::ostream& out, const RealGrid& g) {
  writeI32(out, g.rows());
  writeI32(out, g.cols());
  if (!g.empty()) {
    out.write(reinterpret_cast<const char*>(g.data()),
              static_cast<std::streamsize>(g.size() * sizeof(double)));
  }
}

RealGrid readGrid(std::istream& in) {
  const std::int32_t rows = readI32(in);
  const std::int32_t cols = readI32(in);
  if (rows == 0 && cols == 0) return {};
  checkCkpt(rows > 0 && cols > 0 && rows <= kMaxGridSide &&
                cols <= kMaxGridSide,
            "implausible grid shape");
  RealGrid g(rows, cols);
  in.read(reinterpret_cast<char*>(g.data()),
          static_cast<std::streamsize>(g.size() * sizeof(double)));
  checkCkpt(in.good(), "truncated grid data");
  return g;
}

/// Auxiliary grids (bestMask, momentum/Adam state) must be empty or match
/// the P-grid shape; a mismatch means torn or foreign bytes.
void checkAuxShape(const RealGrid& g, const RealGrid& params,
                   const char* name) {
  if (g.empty()) return;
  if (!g.sameShape(params)) {
    failCheckpoint(std::string(name) + " shape does not match the P-grid");
  }
}

void writeRecord(std::ostream& out, const IterationRecord& r) {
  writeI32(out, r.iteration);
  writeF64(out, r.objective);
  writeF64(out, r.targetTerm);
  writeF64(out, r.pvbTerm);
  writeF64(out, r.rmsGradient);
  writeF64(out, r.stepSize);
  writeF64(out, r.wallMs);
  writeU32(out, (r.improved ? 1u : 0u) | (r.jumped ? 2u : 0u) |
                    (r.recovered ? 4u : 0u));
}

IterationRecord readRecord(std::istream& in) {
  IterationRecord r;
  r.iteration = readI32(in);
  r.objective = readF64(in);
  r.targetTerm = readF64(in);
  r.pvbTerm = readF64(in);
  r.rmsGradient = readF64(in);
  r.stepSize = readF64(in);
  r.wallMs = readF64(in);
  const std::uint32_t flags = readU32(in);
  checkCkpt((flags & ~7u) == 0, "bad iteration record flags");
  r.improved = (flags & 1u) != 0;
  r.jumped = (flags & 2u) != 0;
  r.recovered = (flags & 4u) != 0;
  return r;
}

OptimizerCheckpoint loadImpl(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) failCheckpoint("cannot open file");
  checkCkpt(readU32(in) == kMagic, "bad magic (not a checkpoint file)");
  const std::uint32_t version = readU32(in);
  if (version != kVersion) {
    failCheckpoint("unsupported version " + std::to_string(version) +
                   " (this binary writes v" + std::to_string(kVersion) + ")");
  }
  OptimizerCheckpoint ckpt;
  ckpt.iteration = readI32(in);
  ckpt.step = readF64(in);
  ckpt.previousValue = readF64(in);
  ckpt.sinceImprovement = readI32(in);
  ckpt.bestObjective = readF64(in);
  ckpt.bestIteration = readI32(in);
  ckpt.nonFiniteEvents = readI32(in);
  ckpt.recoveries = readI32(in);
  ckpt.params = readGrid(in);
  ckpt.bestMask = readGrid(in);
  ckpt.velocity = readGrid(in);
  ckpt.adamM = readGrid(in);
  ckpt.adamV = readGrid(in);
  checkCkpt(!ckpt.params.empty(), "missing P-grid");
  checkCkpt(ckpt.iteration >= 0, "negative iteration");
  checkCkpt(ckpt.bestIteration >= 0, "negative best iteration");
  checkCkpt(ckpt.sinceImprovement >= 0, "negative improvement streak");
  checkCkpt(ckpt.nonFiniteEvents >= 0 && ckpt.recoveries >= 0,
            "negative guardrail counters");
  checkCkpt(std::isfinite(ckpt.step) && ckpt.step > 0.0,
            "non-finite or non-positive step size");
  checkAuxShape(ckpt.bestMask, ckpt.params, "bestMask");
  checkAuxShape(ckpt.velocity, ckpt.params, "velocity");
  checkAuxShape(ckpt.adamM, ckpt.params, "adamM");
  checkAuxShape(ckpt.adamV, ckpt.params, "adamV");
  const std::uint32_t count = readU32(in);
  checkCkpt(count <= 1u << 20, "implausible history length");
  ckpt.history.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ckpt.history.push_back(readRecord(in));
  }
  // A well-formed checkpoint ends exactly here; trailing bytes mean the
  // file was concatenated, doubly-written, or is not ours after all.
  in.peek();
  checkCkpt(in.eof(), "trailing bytes after checkpoint payload");
  return ckpt;
}

}  // namespace

void saveOptimizerCheckpoint(const std::string& path,
                             const OptimizerCheckpoint& ckpt) {
  MOSAIC_SPAN("checkpoint.save");
  MOSAIC_CHECK(!ckpt.params.empty(), "cannot checkpoint an empty P-grid");
  // Atomic publication: a crash mid-write never clobbers the previous good
  // checkpoint.
  writeFileAtomically(path, [&](std::ostream& out) {
    writeU32(out, kMagic);
    writeU32(out, kVersion);
    writeI32(out, ckpt.iteration);
    writeF64(out, ckpt.step);
    writeF64(out, ckpt.previousValue);
    writeI32(out, ckpt.sinceImprovement);
    writeF64(out, ckpt.bestObjective);
    writeI32(out, ckpt.bestIteration);
    writeI32(out, ckpt.nonFiniteEvents);
    writeI32(out, ckpt.recoveries);
    writeGrid(out, ckpt.params);
    writeGrid(out, ckpt.bestMask);
    writeGrid(out, ckpt.velocity);
    writeGrid(out, ckpt.adamM);
    writeGrid(out, ckpt.adamV);
    writeU32(out, static_cast<std::uint32_t>(ckpt.history.size()));
    for (const IterationRecord& r : ckpt.history) writeRecord(out, r);
  });
}

OptimizerCheckpoint loadOptimizerCheckpoint(const std::string& path) {
  MOSAIC_SPAN("checkpoint.load");
  try {
    return loadImpl(path);
  } catch (const CheckpointError& e) {
    throw CheckpointError(std::string(e.what()) + " [" + path + "]");
  } catch (const std::bad_alloc&) {
    failCheckpoint("allocation failed (corrupt length bytes?) in " + path);
  } catch (const Error& e) {
    // Grid construction and similar internal checks surface here when fed
    // corrupt dimensions; normalize to the typed checkpoint error.
    failCheckpoint(std::string(e.what()) + " in " + path);
  }
}

}  // namespace mosaic
