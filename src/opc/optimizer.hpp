#pragma once
/// \file optimizer.hpp
/// Gradient-descent driver for the ILT objective (paper Alg. 1) with the
/// step-size "jump" technique of Zhao & Chu [12] to escape local minima.
/// The returned mask is the iterate with the lowest objective value seen
/// (Alg. 1 line 9), not necessarily the last one.
///
/// The driver carries numerical guardrails (docs/robustness.md): every
/// evaluation is screened for non-finite values and rolled back to the
/// last good iterate with a shrunk step, a wall-clock deadline returns the
/// best iterate instead of running over budget, and the full optimizer
/// state can be checkpointed to disk and resumed bit-identically.

#include <functional>
#include <string>
#include <vector>

#include "opc/mask_params.hpp"
#include "opc/objective.hpp"
#include "support/cancel.hpp"

namespace mosaic {

namespace telemetry {
class RunLog;
}

/// Telemetry for one optimizer iteration (drives the paper's Fig. 6 and
/// the JSONL run log, docs/observability.md).
struct IterationRecord {
  int iteration = 0;
  double objective = 0.0;
  double targetTerm = 0.0;
  double pvbTerm = 0.0;
  double rmsGradient = 0.0;
  double stepSize = 0.0;
  double wallMs = 0.0;  ///< wall-clock time this iteration took
  bool improved = false;
  bool jumped = false;
  bool recovered = false;  ///< non-finite iterate rolled back this iteration
};

/// Why the optimizer stopped.
enum class StopReason {
  kConverged,         ///< RMS-gradient rule satisfied
  kMaxIterations,     ///< iteration budget exhausted
  kDeadline,          ///< wall-clock budget exhausted
  kAbortedNonFinite,  ///< non-finite values exceeded cfg.maxRecoveries
  kCanceled,          ///< OptimizeOptions.cancel token requested a stop
};

[[nodiscard]] std::string stopReasonName(StopReason reason);

struct OptimizeResult {
  RealGrid bestMask;       ///< continuous mask with the lowest objective
  double bestObjective = 0.0;
  int bestIteration = 0;
  std::vector<IterationRecord> history;
  bool converged = false;  ///< stopped on the RMS-gradient rule
  StopReason stopReason = StopReason::kMaxIterations;
  int nonFiniteEvents = 0;  ///< evaluations with a NaN/Inf value/grad/param
  int recoveries = 0;       ///< rollbacks performed (<= nonFiniteEvents)
};

/// Full optimizer state between iterations; what a checkpoint stores.
/// Resuming from a checkpoint reproduces the uninterrupted run's remaining
/// iterations bit-identically (the objective is deterministic).
struct OptimizerCheckpoint {
  int iteration = 0;  ///< last completed iteration
  double step = 0.0;
  double previousValue = 0.0;
  int sinceImprovement = 0;
  double bestObjective = 0.0;
  int bestIteration = 0;
  int nonFiniteEvents = 0;
  int recoveries = 0;
  RealGrid params;    ///< current P-grid
  RealGrid bestMask;
  RealGrid velocity;  ///< momentum state (empty unless kMomentum)
  RealGrid adamM;     ///< Adam first moment (empty unless kAdam)
  RealGrid adamV;     ///< Adam second moment (empty unless kAdam)
  std::vector<IterationRecord> history;
};

/// Typed error for unreadable checkpoints: missing file, truncated or
/// garbage bytes, version mismatch, implausible shapes. Derives from
/// InvalidArgument (through FormatError) so pre-existing catch sites keep
/// working; catching it specifically lets recovery paths (tile scheduler,
/// serve workers) restart cleanly from scratch instead of failing the
/// whole job.
class CheckpointError : public FormatError {
 public:
  explicit CheckpointError(const std::string& what) : FormatError(what) {}
};

/// Serialize a checkpoint to a versioned binary file (written atomically:
/// temp file + rename). Throws on I/O failure.
void saveOptimizerCheckpoint(const std::string& path,
                             const OptimizerCheckpoint& ckpt);

/// Load a checkpoint; throws CheckpointError on missing/truncated/corrupt/
/// version-mismatched files (never crashes on garbage bytes).
[[nodiscard]] OptimizerCheckpoint loadOptimizerCheckpoint(
    const std::string& path);

/// Checkpoint/resume and telemetry controls for optimizeMask.
struct OptimizeOptions {
  std::string checkpointPath;  ///< write checkpoints here (empty = off)
  int checkpointEvery = 0;     ///< iterations between checkpoints (0 = off)
  std::string resumePath;      ///< resume from this checkpoint (empty = off)
  /// When set, one JSONL record per iteration is appended here (type
  /// "iteration", docs/observability.md). Not owned; must outlive the run.
  telemetry::RunLog* runLog = nullptr;
  /// Scope label stamped into every run-log record (e.g. the clip name or
  /// "tile_r2_c3") so concurrent optimizers sharing one log stay
  /// distinguishable.
  std::string runLogScope;
  /// Cooperative stop: polled once per iteration. When it fires the run
  /// stops with StopReason::kCanceled and — if checkpointing is armed — a
  /// final checkpoint is written first, so an interrupted run (Ctrl-C, a
  /// serve drain, a client cancel, a job deadline) can resume
  /// bit-identically. Not owned; may be nullptr.
  const CancelToken* cancel = nullptr;
  /// Warm start: when non-empty, runOpc descends from this continuous mask
  /// instead of the SRAF-initialized target (pattern-cache near hits,
  /// docs/caching.md). Must match the target's grid shape. Ignored when
  /// `resumePath` is set — a checkpoint carries its own full state.
  RealGrid warmStartMask;
  /// Invoked once per iteration with the same record the run log gets
  /// (streaming progress: serve's watch op, docs/observability.md). Called
  /// from the optimizing thread, so implementations must be cheap and
  /// non-blocking — push to a bounded buffer, never write a socket.
  std::function<void(const IterationRecord&)> progressSink;
};

/// Called after every iteration with the current (not best) mask.
using IterationCallback =
    std::function<void(const IterationRecord&, const RealGrid& mask)>;

/// Run gradient descent from an initial mask. Steps are taken in P-space
/// (MaskTransform), with the update normalized by the gradient RMS so the
/// configured step size is in P units. When `options.resumePath` is set the
/// initial mask only fixes the grid shape; all state comes from the
/// checkpoint.
OptimizeResult optimizeMask(const IltObjective& objective,
                            const RealGrid& initialMask,
                            const IterationCallback& callback = {},
                            const OptimizeOptions& options = {});

}  // namespace mosaic
