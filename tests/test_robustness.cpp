/// Tests for the robustness layer: fail-point framework, optimizer
/// numerical guardrails (NaN rollback, recovery budget, deadline),
/// checkpoint/restore, and the attempt loop every solve driver shares
/// (docs/robustness.md).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "opc/mosaic.hpp"
#include "opc/objective.hpp"
#include "opc/optimizer.hpp"
#include "suite/testcases.hpp"
#include "support/failpoint.hpp"

namespace mosaic {
namespace {

// ----------------------------------------------------------- fail points

TEST(Failpoint, InactiveByDefault) {
  failpoint::reset();
  EXPECT_FALSE(failpoint::active());
  EXPECT_FALSE(failpoint::isArmed("some.site"));
  EXPECT_EQ(failpoint::onHit("some.site"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::hitCount("some.site"), 0);
}

TEST(Failpoint, ParsesMultiSiteSpec) {
  failpoint::ScopedFailpoints sfp(
      "objective.gradient:nan@iter=7,io.glp.parse:throw,fft.forward:inf");
  EXPECT_TRUE(failpoint::active());
  EXPECT_TRUE(failpoint::isArmed("objective.gradient"));
  EXPECT_TRUE(failpoint::isArmed("io.glp.parse"));
  EXPECT_TRUE(failpoint::isArmed("fft.forward"));
  EXPECT_FALSE(failpoint::isArmed("optimizer.step"));
}

TEST(Failpoint, RejectsMalformedSpecs) {
  failpoint::reset();
  EXPECT_THROW(failpoint::configure("noaction"), InvalidArgument);
  EXPECT_THROW(failpoint::configure("site:frobnicate"), InvalidArgument);
  EXPECT_THROW(failpoint::configure("site:nan@iter=0"), InvalidArgument);
  EXPECT_THROW(failpoint::configure("site:nan@iter=abc"), InvalidArgument);
  EXPECT_THROW(failpoint::configure("site:nan@turn=3"), InvalidArgument);
  EXPECT_THROW(failpoint::configure("site:delay=oops"), InvalidArgument);
  EXPECT_THROW(failpoint::configure(":nan"), InvalidArgument);
  // A malformed list arms nothing, even when a prefix clause is valid.
  EXPECT_THROW(failpoint::configure("good.site:nan,bad:spec:extra@"),
               InvalidArgument);
  EXPECT_FALSE(failpoint::active());
  failpoint::reset();
}

TEST(Failpoint, ThrowFiresOnConfiguredHitOnly) {
  failpoint::ScopedFailpoints sfp("unit.site:throw@iter=2");
  EXPECT_EQ(failpoint::onHit("unit.site"), failpoint::Action::kNone);
  EXPECT_THROW(failpoint::onHit("unit.site"), Error);
  EXPECT_EQ(failpoint::onHit("unit.site"), failpoint::Action::kNone);
  EXPECT_EQ(failpoint::hitCount("unit.site"), 3);
}

TEST(Failpoint, NanAndInfPoisonData) {
  {
    failpoint::ScopedFailpoints sfp("unit.data:nan");
    double values[5] = {1, 2, 3, 4, 5};
    failpoint::maybePoison("unit.data", values, 5);
    EXPECT_TRUE(std::isnan(values[2]));  // middle element
  }
  {
    failpoint::ScopedFailpoints sfp("unit.data:inf");
    double values[4] = {1, 2, 3, 4};
    failpoint::maybePoison("unit.data", values, 4);
    EXPECT_TRUE(std::isinf(values[2]));
  }
}

TEST(Failpoint, DelayActionDoesNotThrowOrPoison) {
  failpoint::ScopedFailpoints sfp("unit.delay:delay=1");
  double value = 7.0;
  EXPECT_NO_THROW(failpoint::maybePoison("unit.delay", &value, 1));
  EXPECT_EQ(value, 7.0);
}

TEST(Failpoint, ResetDisarmsEverything) {
  failpoint::configure("unit.reset:throw");
  EXPECT_TRUE(failpoint::active());
  failpoint::reset();
  EXPECT_FALSE(failpoint::active());
  EXPECT_NO_THROW(failpoint::onHit("unit.reset"));
}

TEST(Failpoint, ConfiguresFromEnvironment) {
  failpoint::reset();
  ASSERT_EQ(setenv("MOSAIC_FAILPOINTS", "unit.env:nan@iter=3", 1), 0);
  failpoint::configureFromEnv();
  EXPECT_TRUE(failpoint::isArmed("unit.env"));
  unsetenv("MOSAIC_FAILPOINTS");
  failpoint::reset();
}

// ------------------------------------------------- optimizer guardrails

/// Small, fast single-focus objective shared by the optimizer tests:
/// 64 x 64 grid (16 nm pixels), image-difference target term only.
const LithoSimulator& testSim() {
  static LithoSimulator* sim = [] {
    OpticsConfig optics;
    optics.pixelNm = 16;
    return new LithoSimulator(optics);
  }();
  return *sim;
}

IltConfig testConfig(int iterations) {
  IltConfig cfg = defaultIltConfig(OpcMethod::kIltBaseline, 16);
  cfg.maxIterations = iterations;
  return cfg;
}

const BitGrid& testTarget() {
  static BitGrid* target =
      new BitGrid(rasterize(buildTestcase(1), 16));
  return *target;
}

TEST(OptimizerGuardrails, RecoversFromInjectedGradientNan) {
  const IltObjective objective(testSim(), testTarget(), testConfig(6));
  const RealGrid initial = toReal(testTarget());

  // Hit 3 of objective.gradient = the evaluation inside iteration 2 (one
  // evaluation happens before the loop).
  failpoint::ScopedFailpoints sfp("objective.gradient:nan@iter=3");
  const OptimizeResult result = optimizeMask(objective, initial);

  EXPECT_GE(result.nonFiniteEvents, 1);
  EXPECT_GE(result.recoveries, 1);
  EXPECT_TRUE(std::isfinite(result.bestObjective));
  for (double v : result.bestMask) EXPECT_TRUE(std::isfinite(v));
  ASSERT_FALSE(result.history.empty());
  bool sawRecovery = false;
  for (const IterationRecord& r : result.history) {
    sawRecovery = sawRecovery || r.recovered;
  }
  EXPECT_TRUE(sawRecovery);
  // The run continues after the rollback instead of aborting.
  EXPECT_NE(result.stopReason, StopReason::kAbortedNonFinite);
  EXPECT_EQ(result.history.size(), 6u);
}

TEST(OptimizerGuardrails, RecoveredRunMatchesCleanRunQuality) {
  const IltObjective objective(testSim(), testTarget(), testConfig(20));
  const RealGrid initial = toReal(testTarget());

  const OptimizeResult clean = optimizeMask(objective, initial);
  failpoint::ScopedFailpoints sfp("objective.gradient:nan@iter=4");
  const OptimizeResult recovered = optimizeMask(objective, initial);

  ASSERT_GE(recovered.recoveries, 1);
  EXPECT_TRUE(std::isfinite(recovered.bestObjective));
  // Rollback + step backoff keeps the recovered run in the same quality
  // regime as the clean run (acceptance: within 5 %).
  EXPECT_LE(recovered.bestObjective, clean.bestObjective * 1.05);
}

TEST(OptimizerGuardrails, AbortsWhenRecoveryBudgetExhausted) {
  IltConfig cfg = testConfig(6);
  cfg.maxRecoveries = 0;
  const IltObjective objective(testSim(), testTarget(), cfg);
  const RealGrid initial = toReal(testTarget());

  failpoint::ScopedFailpoints sfp("objective.gradient:nan@iter=2");
  const OptimizeResult result = optimizeMask(objective, initial);

  EXPECT_EQ(result.stopReason, StopReason::kAbortedNonFinite);
  EXPECT_GE(result.nonFiniteEvents, 1);
  EXPECT_EQ(result.recoveries, 0);
  // Best-so-far survives the abort.
  EXPECT_TRUE(std::isfinite(result.bestObjective));
  for (double v : result.bestMask) EXPECT_TRUE(std::isfinite(v));
}

TEST(OptimizerGuardrails, AbortsOnNonFiniteInitialEvaluation) {
  const IltObjective objective(testSim(), testTarget(), testConfig(4));
  const RealGrid initial = toReal(testTarget());

  failpoint::ScopedFailpoints sfp("objective.gradient:nan@iter=1");
  const OptimizeResult result = optimizeMask(objective, initial);

  EXPECT_EQ(result.stopReason, StopReason::kAbortedNonFinite);
  EXPECT_EQ(result.nonFiniteEvents, 1);
  EXPECT_TRUE(result.history.empty());
}

TEST(OptimizerGuardrails, ThrowInjectionPropagates) {
  const IltObjective objective(testSim(), testTarget(), testConfig(4));
  const RealGrid initial = toReal(testTarget());

  failpoint::ScopedFailpoints sfp("optimizer.step:throw@iter=2");
  EXPECT_THROW(optimizeMask(objective, initial), Error);
}

TEST(OptimizerGuardrails, DeadlineReturnsBestSoFar) {
  IltConfig cfg = testConfig(50);
  cfg.deadlineSeconds = 1e-9;  // expires before the first iteration
  const IltObjective objective(testSim(), testTarget(), cfg);
  const RealGrid initial = toReal(testTarget());

  const OptimizeResult result = optimizeMask(objective, initial);
  EXPECT_EQ(result.stopReason, StopReason::kDeadline);
  EXPECT_TRUE(result.history.empty());
  EXPECT_EQ(result.bestIteration, 0);
  EXPECT_TRUE(std::isfinite(result.bestObjective));
}

TEST(OptimizerGuardrails, HistoryDeterministicWithFailpointsDisabled) {
  failpoint::reset();
  const IltObjective objective(testSim(), testTarget(), testConfig(5));
  const RealGrid initial = toReal(testTarget());

  const OptimizeResult a = optimizeMask(objective, initial);
  const OptimizeResult b = optimizeMask(objective, initial);

  EXPECT_EQ(a.stopReason, b.stopReason);
  EXPECT_EQ(a.nonFiniteEvents, 0);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].objective, b.history[i].objective);
    EXPECT_EQ(a.history[i].rmsGradient, b.history[i].rmsGradient);
    EXPECT_EQ(a.history[i].stepSize, b.history[i].stepSize);
  }
  EXPECT_EQ(a.bestMask, b.bestMask);
}

// -------------------------------------------------- checkpoint/restore

TEST(Checkpoint, BinaryRoundTripIsExact) {
  OptimizerCheckpoint ckpt;
  ckpt.iteration = 7;
  ckpt.step = 0.123456789012345;
  ckpt.previousValue = 42.5;
  ckpt.sinceImprovement = 2;
  ckpt.bestObjective = 41.875;
  ckpt.bestIteration = 5;
  ckpt.nonFiniteEvents = 3;
  ckpt.recoveries = 1;
  ckpt.params = RealGrid(4, 6, 0.0);
  for (std::size_t i = 0; i < ckpt.params.size(); ++i) {
    ckpt.params.data()[i] = 0.1 * static_cast<double>(i) - 1.0;
  }
  ckpt.bestMask = RealGrid(4, 6, 0.25);
  ckpt.velocity = RealGrid(4, 6, -0.5);
  IterationRecord rec;
  rec.iteration = 7;
  rec.objective = 43.0;
  rec.stepSize = 0.2;
  rec.improved = true;
  rec.recovered = true;
  ckpt.history.push_back(rec);

  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_ckpt_roundtrip.bin";
  saveOptimizerCheckpoint(path.string(), ckpt);
  const OptimizerCheckpoint loaded = loadOptimizerCheckpoint(path.string());

  EXPECT_EQ(loaded.iteration, ckpt.iteration);
  EXPECT_EQ(loaded.step, ckpt.step);
  EXPECT_EQ(loaded.previousValue, ckpt.previousValue);
  EXPECT_EQ(loaded.sinceImprovement, ckpt.sinceImprovement);
  EXPECT_EQ(loaded.bestObjective, ckpt.bestObjective);
  EXPECT_EQ(loaded.bestIteration, ckpt.bestIteration);
  EXPECT_EQ(loaded.nonFiniteEvents, ckpt.nonFiniteEvents);
  EXPECT_EQ(loaded.recoveries, ckpt.recoveries);
  EXPECT_EQ(loaded.params, ckpt.params);
  EXPECT_EQ(loaded.bestMask, ckpt.bestMask);
  EXPECT_EQ(loaded.velocity, ckpt.velocity);
  EXPECT_TRUE(loaded.adamM.empty());
  ASSERT_EQ(loaded.history.size(), 1u);
  EXPECT_EQ(loaded.history[0].iteration, rec.iteration);
  EXPECT_EQ(loaded.history[0].objective, rec.objective);
  EXPECT_TRUE(loaded.history[0].improved);
  EXPECT_FALSE(loaded.history[0].jumped);
  EXPECT_TRUE(loaded.history[0].recovered);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsMissingAndGarbageFiles) {
  EXPECT_THROW(loadOptimizerCheckpoint("/nonexistent/dir/x.ckpt"),
               InvalidArgument);
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  EXPECT_THROW(loadOptimizerCheckpoint(path.string()), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeReproducesUninterruptedRunExactly) {
  failpoint::reset();
  const RealGrid initial = toReal(testTarget());
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_ckpt_resume.bin";

  // Uninterrupted reference: 6 iterations straight through.
  const IltObjective full(testSim(), testTarget(), testConfig(6));
  const OptimizeResult reference = optimizeMask(full, initial);

  // Interrupted run: stop after 3 iterations, checkpointing at 3 ...
  {
    const IltObjective half(testSim(), testTarget(), testConfig(3));
    OptimizeOptions opts;
    opts.checkpointPath = path.string();
    opts.checkpointEvery = 3;
    optimizeMask(half, initial, {}, opts);
  }
  // ... then resume to the full budget ("--resume <ckpt>").
  OptimizeOptions resumeOpts;
  resumeOpts.resumePath = path.string();
  const OptimizeResult resumed = optimizeMask(full, initial, {}, resumeOpts);

  ASSERT_EQ(resumed.history.size(), reference.history.size());
  for (std::size_t i = 0; i < reference.history.size(); ++i) {
    EXPECT_EQ(resumed.history[i].iteration, reference.history[i].iteration);
    EXPECT_EQ(resumed.history[i].objective, reference.history[i].objective)
        << "iteration " << i;
    EXPECT_EQ(resumed.history[i].rmsGradient,
              reference.history[i].rmsGradient);
    EXPECT_EQ(resumed.history[i].stepSize, reference.history[i].stepSize);
    EXPECT_EQ(resumed.history[i].improved, reference.history[i].improved);
    EXPECT_EQ(resumed.history[i].jumped, reference.history[i].jumped);
  }
  EXPECT_EQ(resumed.bestObjective, reference.bestObjective);
  EXPECT_EQ(resumed.bestIteration, reference.bestIteration);
  EXPECT_EQ(resumed.bestMask, reference.bestMask);
  EXPECT_EQ(resumed.stopReason, reference.stopReason);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeRejectsShapeMismatch) {
  const auto path =
      std::filesystem::temp_directory_path() / "mosaic_ckpt_shape.bin";
  OptimizerCheckpoint ckpt;
  ckpt.iteration = 1;
  ckpt.params = RealGrid(8, 8, 0.0);
  ckpt.bestMask = RealGrid(8, 8, 0.0);
  saveOptimizerCheckpoint(path.string(), ckpt);

  const IltObjective objective(testSim(), testTarget(), testConfig(2));
  OptimizeOptions opts;
  opts.resumePath = path.string();
  EXPECT_THROW(optimizeMask(objective, toReal(testTarget()), {}, opts),
               InvalidArgument);
  std::filesystem::remove(path);
}

TEST(StopReason, NamesAreStable) {
  EXPECT_EQ(stopReasonName(StopReason::kConverged), "converged");
  EXPECT_EQ(stopReasonName(StopReason::kMaxIterations), "max-iterations");
  EXPECT_EQ(stopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_EQ(stopReasonName(StopReason::kAbortedNonFinite),
            "aborted-non-finite");
}

// ---------------------------------------------------- the attempt loop

TEST(AttemptLoop, RetriesUntilTheLastAttemptThenReportsTheFailure) {
  AttemptPolicy policy;
  policy.maxAttempts = 3;
  policy.backoffMs = 1;
  std::vector<int> seen;
  const AttemptOutcome out =
      runAttempts(policy, [&](int attempt, OptimizeOptions&) {
        seen.push_back(attempt);
        throw Error("boom " + std::to_string(attempt));
      });
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.stopped);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.error, "boom 3");
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(AttemptLoop, RecoveredCountContinuesAndStillRunsOnce) {
  AttemptPolicy policy;
  policy.firstAttempt = 4;
  policy.maxAttempts = 2;
  std::vector<int> seen;
  const AttemptOutcome out = runAttempts(
      policy, [&](int attempt, OptimizeOptions&) { seen.push_back(attempt); });
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 4);
  EXPECT_EQ(seen, std::vector<int>{4});
}

TEST(AttemptLoop, FailpointSiteFiresOncePerAttempt) {
  failpoint::ScopedFailpoints fp("test.attempt:throw@iter=1");
  AttemptPolicy policy;
  policy.failpointSite = "test.attempt";
  policy.maxAttempts = 2;
  int bodies = 0;
  const AttemptOutcome out =
      runAttempts(policy, [&](int, OptimizeOptions&) { ++bodies; });
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_EQ(bodies, 1);
  EXPECT_EQ(failpoint::hitCount("test.attempt"), 2);
}

TEST(AttemptLoop, UnusableCheckpointIsDeletedAndRestartedFresh) {
  const std::string path =
      ::testing::TempDir() + "mosaic_attempt_garbage.ckpt";
  std::ofstream(path, std::ios::binary) << "garbage";
  AttemptPolicy policy;
  policy.checkpointPath = path;
  policy.resume = true;
  std::vector<std::string> resumes;
  const AttemptOutcome out =
      runAttempts(policy, [&](int, OptimizeOptions& options) {
        resumes.push_back(options.resumePath);
        EXPECT_EQ(options.checkpointPath, path);
        if (!options.resumePath.empty()) {
          (void)loadOptimizerCheckpoint(options.resumePath);
        }
      });
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.attempts, 1);  // the restart used up no attempt
  EXPECT_EQ(resumes, (std::vector<std::string>{path, ""}));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(AttemptLoop, StopBeatsTheRetry) {
  CancelToken stop;
  stop.cancel();
  AttemptPolicy policy;
  policy.maxAttempts = 2;
  policy.backoffMs = 5000;
  policy.cancel = &stop;
  int bodies = 0;
  const auto start = std::chrono::steady_clock::now();
  const AttemptOutcome out =
      runAttempts(policy, [&](int, OptimizeOptions& options) {
        EXPECT_EQ(options.cancel, &stop);
        ++bodies;
        throw Error("fails while stopping");
      });
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.stopped);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(bodies, 1);
}

}  // namespace
}  // namespace mosaic
