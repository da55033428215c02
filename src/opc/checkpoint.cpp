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
#include "support/binary_io.hpp"
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

void writeGrid(BinaryWriter& out, const RealGrid& g) {
  out.put<std::int32_t>(g.rows());
  out.put<std::int32_t>(g.cols());
  out.putDoubles(g.data(), g.size());
}

RealGrid readGrid(BinaryReader& in) {
  const auto rows = in.get<std::int32_t>();
  const auto cols = in.get<std::int32_t>();
  if (rows == 0 && cols == 0) return {};
  checkCkpt(rows > 0 && cols > 0 && rows <= kMaxGridSide &&
                cols <= kMaxGridSide,
            "implausible grid shape");
  RealGrid g(rows, cols);
  in.getDoubles(g.data(), g.size());
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

void writeRecord(BinaryWriter& out, const IterationRecord& r) {
  out.put<std::int32_t>(r.iteration);
  out.put(r.objective);
  out.put(r.targetTerm);
  out.put(r.pvbTerm);
  out.put(r.rmsGradient);
  out.put(r.stepSize);
  out.put(r.wallMs);
  out.put<std::uint32_t>((r.improved ? 1u : 0u) | (r.jumped ? 2u : 0u) |
                         (r.recovered ? 4u : 0u));
}

IterationRecord readRecord(BinaryReader& in) {
  IterationRecord r;
  r.iteration = in.get<std::int32_t>();
  r.objective = in.get<double>();
  r.targetTerm = in.get<double>();
  r.pvbTerm = in.get<double>();
  r.rmsGradient = in.get<double>();
  r.stepSize = in.get<double>();
  r.wallMs = in.get<double>();
  const auto flags = in.get<std::uint32_t>();
  checkCkpt((flags & ~7u) == 0, "bad iteration record flags");
  r.improved = (flags & 1u) != 0;
  r.jumped = (flags & 2u) != 0;
  r.recovered = (flags & 4u) != 0;
  return r;
}

OptimizerCheckpoint loadImpl(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) failCheckpoint("cannot open file");
  BinaryReader in(file, "checkpoint");
  checkCkpt(in.get<std::uint32_t>() == kMagic,
            "bad magic (not a checkpoint file)");
  const auto version = in.get<std::uint32_t>();
  if (version != kVersion) {
    failCheckpoint("unsupported version " + std::to_string(version) +
                   " (this binary writes v" + std::to_string(kVersion) + ")");
  }
  OptimizerCheckpoint ckpt;
  ckpt.iteration = in.get<std::int32_t>();
  ckpt.step = in.get<double>();
  ckpt.previousValue = in.get<double>();
  ckpt.sinceImprovement = in.get<std::int32_t>();
  ckpt.bestObjective = in.get<double>();
  ckpt.bestIteration = in.get<std::int32_t>();
  ckpt.nonFiniteEvents = in.get<std::int32_t>();
  ckpt.recoveries = in.get<std::int32_t>();
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
  const auto count = in.get<std::uint32_t>();
  checkCkpt(count <= 1u << 20, "implausible history length");
  ckpt.history.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ckpt.history.push_back(readRecord(in));
  }
  in.expectEnd();
  return ckpt;
}

}  // namespace

void saveOptimizerCheckpoint(const std::string& path,
                             const OptimizerCheckpoint& ckpt) {
  MOSAIC_SPAN("checkpoint.save");
  MOSAIC_CHECK(!ckpt.params.empty(), "cannot checkpoint an empty P-grid");
  // Atomic publication: a crash mid-write never clobbers the previous good
  // checkpoint.
  writeFileAtomically(path, [&](std::ostream& stream) {
    BinaryWriter out(stream);
    out.put(kMagic);
    out.put(kVersion);
    out.put<std::int32_t>(ckpt.iteration);
    out.put(ckpt.step);
    out.put(ckpt.previousValue);
    out.put<std::int32_t>(ckpt.sinceImprovement);
    out.put(ckpt.bestObjective);
    out.put<std::int32_t>(ckpt.bestIteration);
    out.put<std::int32_t>(ckpt.nonFiniteEvents);
    out.put<std::int32_t>(ckpt.recoveries);
    writeGrid(out, ckpt.params);
    writeGrid(out, ckpt.bestMask);
    writeGrid(out, ckpt.velocity);
    writeGrid(out, ckpt.adamM);
    writeGrid(out, ckpt.adamV);
    out.put(static_cast<std::uint32_t>(ckpt.history.size()));
    for (const IterationRecord& r : ckpt.history) writeRecord(out, r);
  });
}

OptimizerCheckpoint loadOptimizerCheckpoint(const std::string& path) {
  MOSAIC_SPAN("checkpoint.load");
  try {
    return loadImpl(path);
  } catch (const FormatError& e) {  // ours, or the reader's
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
