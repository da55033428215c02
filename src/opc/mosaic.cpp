#include "opc/mosaic.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "support/failpoint.hpp"
#include "support/log.hpp"
#include "support/telemetry/flightrec.hpp"
#include "support/timer.hpp"

namespace mosaic {

std::string methodName(OpcMethod method) {
  switch (method) {
    case OpcMethod::kMosaicFast:
      return "MOSAIC_fast";
    case OpcMethod::kMosaicExact:
      return "MOSAIC_exact";
    case OpcMethod::kIltBaseline:
      return "ILT_baseline";
  }
  throw InvalidArgument("unknown OPC method");
}

OpcMethod parseOpcMethod(const std::string& name) {
  if (name == "fast") return OpcMethod::kMosaicFast;
  if (name == "exact") return OpcMethod::kMosaicExact;
  if (name == "baseline") return OpcMethod::kIltBaseline;
  throw InvalidArgument("unknown method '" + name +
                        "' (expected fast | exact | baseline)");
}

IltConfig defaultIltConfig(OpcMethod method, int pixelNm) {
  MOSAIC_CHECK(pixelNm > 0, "pixel size must be positive");
  const double pixelArea = static_cast<double>(pixelNm) * pixelNm;
  IltConfig cfg;
  switch (method) {
    case OpcMethod::kMosaicFast:
      cfg.targetTerm = TargetTerm::kImageDiff;
      cfg.gamma = 4.0;
      // F_id sums |Z-Zt|^4 per pixel: a mismatch band of area A nm^2
      // contributes ~A/pixelArea, so alpha ~ pixel area keeps the term on
      // the PV-band scale; EPE pressure comes through the band shrinking.
      cfg.alpha = 10.0 * pixelArea;
      cfg.beta = 4.0 * pixelArea;
      break;
    case OpcMethod::kMosaicExact:
      cfg.targetTerm = TargetTerm::kEpe;
      // F_epe counts violations: weight them like the contest does.
      cfg.alpha = 5000.0;
      cfg.beta = 4.0 * pixelArea;
      // The paper's exact mode spends ~6x the compute of the fast mode per
      // run (per-sample gradient accumulation); our aggregated-field
      // gradient is cheaper per iteration, so exact banks a part of that
      // budget as extra descent iterations instead (still well under the
      // paper's runtime ratio).
      cfg.maxIterations = 30;
      break;
    case OpcMethod::kIltBaseline:
      cfg.targetTerm = TargetTerm::kImageDiff;
      cfg.gamma = 2.0;
      cfg.alpha = 10.0 * pixelArea;
      cfg.beta = 0.0;  // no process-window awareness
      break;
  }
  return cfg;
}

OpcResult runOpc(const LithoSimulator& sim, const BitGrid& target,
                 OpcMethod method, const IltConfig* configOverride,
                 const SrafConfig& sraf, const IterationCallback& callback,
                 const OptimizeOptions& optimizeOptions) {
  WallTimer timer;
  const IltConfig cfg = configOverride != nullptr
                            ? *configOverride
                            : defaultIltConfig(method, sim.optics().pixelNm);

  // Alg. 1 line 2: initial mask = target with rule-based SRAFs — unless a
  // warm start (e.g. a pattern-cache near hit) supplies a better one.
  RealGrid initial;
  if (!optimizeOptions.warmStartMask.empty()) {
    MOSAIC_CHECK(optimizeOptions.warmStartMask.rows() == target.rows() &&
                     optimizeOptions.warmStartMask.cols() == target.cols(),
                 "warm-start mask shape "
                     << optimizeOptions.warmStartMask.rows() << "x"
                     << optimizeOptions.warmStartMask.cols()
                     << " does not match the target " << target.rows() << "x"
                     << target.cols());
    initial = optimizeOptions.warmStartMask;
  } else {
    initial = toReal(insertSraf(target, sim.optics().pixelNm, sraf));
  }

  IltObjective objective(sim, target, cfg);
  OptimizeResult opt = optimizeMask(objective, initial, callback, optimizeOptions);

  OpcResult result;
  result.method = methodName(method);
  result.maskContinuous = std::move(opt.bestMask);
  const MaskTransform transform(cfg.thetaM, cfg.maskLow, cfg.maskHigh);
  result.maskBinary = transform.quantizeFeatures(result.maskContinuous);
  result.maskTwoLevel = transform.materialize(result.maskBinary);
  result.history = std::move(opt.history);
  result.bestObjective = opt.bestObjective;
  result.iterations = static_cast<int>(result.history.size());
  result.converged = opt.converged;
  result.stopReason = opt.stopReason;
  result.nonFiniteEvents = opt.nonFiniteEvents;
  result.recoveries = opt.recoveries;
  result.runtimeSec = timer.seconds();
  LOG_INFO(result.method << " finished: best F = " << opt.bestObjective
                         << " (iteration " << opt.bestIteration << ") in "
                         << result.runtimeSec << " s");
  return result;
}

AttemptOutcome runAttempts(
    const AttemptPolicy& policy,
    const std::function<void(int, OptimizeOptions&)>& body) {
  using Clock = std::chrono::steady_clock;
  const auto stopRequested = [&] {
    return policy.cancel != nullptr && policy.cancel->stopRequested();
  };
  const int lastAttempt = std::max(policy.maxAttempts, policy.firstAttempt);
  bool resume = policy.resume;
  AttemptOutcome outcome;
  for (int attempt = policy.firstAttempt;; ++attempt) {
    outcome.attempts = attempt;
    OptimizeOptions options;
    options.cancel = policy.cancel;
    options.runLogScope = policy.label;
    options.checkpointPath = policy.checkpointPath;  // empty: none written
    options.checkpointEvery = policy.checkpointEvery;
    if (resume && std::ifstream(policy.checkpointPath).good()) {
      options.resumePath = policy.checkpointPath;
    }
    try {
      MOSAIC_FAILPOINT(policy.failpointSite.c_str());
      body(attempt, options);
      outcome.ok = true;
      outcome.error.clear();
      return outcome;
    } catch (const CheckpointError& e) {
      outcome.error = e.what();
      if (!options.resumePath.empty()) {
        LOG_WARN(policy.label << " checkpoint unusable, restarting fresh: "
                              << e.what());
        std::remove(policy.checkpointPath.c_str());
        resume = false;
        --attempt;  // detecting a bad checkpoint is not an attempt
        continue;
      }
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
    LOG_WARN(policy.label << " attempt " << attempt
                          << " failed: " << outcome.error);
    if (attempt < lastAttempt) {
      const Clock::time_point until =
          Clock::now() + std::chrono::milliseconds(policy.backoffMs * attempt);
      while (!stopRequested() && Clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (stopRequested()) {
      outcome.stopped = true;
      return outcome;
    }
    if (attempt >= lastAttempt) return outcome;
    telemetry::flightrec::record(
        "retry", policy.label + " attempt=" + std::to_string(attempt));
  }
}

}  // namespace mosaic
