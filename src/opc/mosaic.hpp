#pragma once
/// \file mosaic.hpp
/// Top-level facade: run MOSAIC_fast / MOSAIC_exact (paper Eq. 19-20) or
/// the conventional-ILT baseline on a target raster and get back the
/// optimized mask plus telemetry. This is the primary public entry point
/// of the library.

#include <string>

#include "litho/simulator.hpp"
#include "opc/optimizer.hpp"
#include "opc/sraf.hpp"

namespace mosaic {

/// The two MOSAIC operating modes plus the baseline formulation.
enum class OpcMethod {
  kMosaicFast,   ///< F = alpha F_id(gamma=4) + beta F_pvb   (Eq. 20)
  kMosaicExact,  ///< F = alpha F_epe + beta F_pvb           (Eq. 19)
  kIltBaseline,  ///< F = F_id(gamma=2), no process-window term
};

[[nodiscard]] std::string methodName(OpcMethod method);

/// The method a command-line flag or job spec names: "fast", "exact" or
/// "baseline". Throws InvalidArgument on anything else.
[[nodiscard]] OpcMethod parseOpcMethod(const std::string& name);

/// Default ILT configuration for a method at a given pixel size. The
/// alpha/beta weights follow the contest scoring ratio (Eq. 22): EPE
/// violations are worth 5000 each and PV-band area 4 per nm^2; the
/// F_id / F_pvb pixel sums are scaled by the pixel area so results are
/// resolution-independent.
[[nodiscard]] IltConfig defaultIltConfig(OpcMethod method, int pixelNm);

struct OpcResult {
  std::string method;
  RealGrid maskContinuous;  ///< best continuous mask from the optimizer
  BitGrid maskBinary;       ///< feature raster (upper transmission level)
  /// Two-level transmission mask {maskLow, maskHigh}; identical to
  /// toReal(maskBinary) for binary masks, carries the negative background
  /// for PSM configurations. Use this for simulation/evaluation.
  RealGrid maskTwoLevel;
  std::vector<IterationRecord> history;
  /// Objective of the returned mask: the lowest the optimizer reached,
  /// the initial mask's evaluation included (history starts at iteration
  /// 1, so its minimum can miss it).
  double bestObjective = 0.0;
  double runtimeSec = 0.0;
  int iterations = 0;
  bool converged = false;
  StopReason stopReason = StopReason::kMaxIterations;
  int nonFiniteEvents = 0;  ///< non-finite evaluations seen by the optimizer
  int recoveries = 0;       ///< rollback recoveries performed
};

/// Run an OPC method end to end: SRAF initialization (Alg. 1 line 2),
/// gradient-descent ILT, binarization. `configOverride` (optional) replaces
/// the method's default IltConfig; `sraf` controls initialization;
/// `callback` observes every iteration (used by the convergence bench);
/// `optimizeOptions` controls checkpointing/resume (docs/robustness.md).
OpcResult runOpc(const LithoSimulator& sim, const BitGrid& target,
                 OpcMethod method, const IltConfig* configOverride = nullptr,
                 const SrafConfig& sraf = {},
                 const IterationCallback& callback = {},
                 const OptimizeOptions& optimizeOptions = {});

/// How a driver attempts one solve under the fault contract every driver
/// shares (docs/robustness.md, "Fault contract"): batch clips, chip tiles
/// and serve jobs all run their solve through runAttempts.
struct AttemptPolicy {
  std::string failpointSite;  ///< fired once per attempt, e.g. "batch.clip"
  /// Names the solve: its run-log scope, and its log and flight-recorder
  /// lines ("B3", "tile_r0_c1", "job-000004").
  std::string label;
  int firstAttempt = 1;  ///< a recovered serve job continues its count
  int maxAttempts = 1;   ///< last attempt number; the first always runs
  int backoffMs = 0;     ///< attempt n + 1 first waits backoffMs × n
  std::string checkpointPath;  ///< optimizer checkpoints (empty = none)
  int checkpointEvery = 5;
  bool resume = false;  ///< resume from checkpointPath when it exists
  const CancelToken* cancel = nullptr;  ///< not owned; may be nullptr
};

struct AttemptOutcome {
  bool ok = false;       ///< an attempt's body returned
  bool stopped = false;  ///< a failed attempt found the stop requested
  int attempts = 0;      ///< number of the last attempt run
  std::string error;     ///< last failure message (empty when ok)
};

/// Run `body(attempt, options)` until one attempt returns or the attempts
/// run out; the body throws to fail its attempt. `options` arrives with
/// the policy's checkpoint, resume, cancel and run-log scope settings.
/// Each attempt first fires the fail-point site. A CheckpointError while
/// resuming deletes the checkpoint and reruns the attempt from scratch
/// without counting it. After a failure, a requested stop ends the loop
/// (`stopped`) instead of a retry; otherwise the loop backs off linearly,
/// waking early on a stop, and tries again.
AttemptOutcome runAttempts(
    const AttemptPolicy& policy,
    const std::function<void(int attempt, OptimizeOptions& options)>& body);

}  // namespace mosaic
