/// Tests for the mosaic_serve job service (docs/serving.md): JSON parsing,
/// bounded-queue admission control, the write-ahead journal and its
/// crash-replay semantics, deadline/cancel handling, checkpoint-corruption
/// recovery, what jobs publish to the pattern store, and an 8-client
/// concurrent hammer over the real TCP stack.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "geometry/raster.hpp"
#include "litho/simulator.hpp"
#include "opc/mosaic.hpp"
#include "opc/optimizer.hpp"
#include "serve/http.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "serve/progress.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "suite/testcases.hpp"
#include "support/failpoint.hpp"
#include "support/socket.hpp"
#include "support/telemetry/jsonin.hpp"
#include "support/timer.hpp"

namespace mosaic {
namespace serve {
namespace {

namespace fs = std::filesystem;
using telemetry::JsonValue;

/// Fresh per-test work directory under the gtest temp root.
std::string freshWorkDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Sanitizer instrumentation slows the SOCS kernel precompute by an order
/// of magnitude; give polled waits proportionally more rope there so the
/// `tsan` suite exercises the threading, not the wall clock.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kWaitScale = 6.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kWaitScale = 6.0;
#else
constexpr double kWaitScale = 1.0;
#endif
#else
constexpr double kWaitScale = 1.0;
#endif

/// Poll until `pred` holds or `timeoutSec` elapses; true iff it held.
template <typename Pred>
bool eventually(Pred pred, double timeoutSec = 20.0) {
  WallTimer timer;
  timeoutSec *= kWaitScale;
  while (timer.seconds() < timeoutSec) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// The cheap job every service test uses: tiny grid, few iterations.
JobSpec tinySpec(int iterations = 6) {
  JobSpec spec;
  spec.caseName = "B1";
  spec.method = "baseline";
  spec.pixelNm = 16;
  spec.iterations = iterations;
  spec.checkpointEvery = 2;
  return spec;
}

ServeConfig tinyConfig(const std::string& workDir, int workers = 1,
                       int queueCapacity = 4) {
  ServeConfig cfg;
  cfg.workDir = workDir;
  cfg.workers = workers;
  cfg.queueCapacity = queueCapacity;
  cfg.backoffMs = 1;
  return cfg;
}

JobState stateOf(const JobService& service, const std::string& id) {
  JobSnapshot snap;
  EXPECT_TRUE(service.snapshot(id, &snap));
  return snap.state;
}

bool isTerminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

// ------------------------------------------------------------ JSON input

TEST(JsonIn, ParsesScalarsAndNesting) {
  const JsonValue v = JsonValue::parse(
      R"({"s":"a\nbA","n":-2.5e2,"b":true,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":"v"}})");
  EXPECT_EQ(v.stringOr("s", ""), "a\nbA");
  EXPECT_EQ(v.numberOr("n", 0), -250.0);
  EXPECT_TRUE(v.boolOr("b", false));
  ASSERT_NE(v.find("z"), nullptr);
  EXPECT_TRUE(v.find("z")->isNull());
  ASSERT_NE(v.find("arr"), nullptr);
  EXPECT_EQ(v.find("arr")->asArray().size(), 3u);
  EXPECT_EQ(v.find("obj")->stringOr("k", ""), "v");
  EXPECT_EQ(v.stringOr("missing", "dflt"), "dflt");
}

TEST(JsonIn, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("nul"), InvalidArgument);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), InvalidArgument);
  // Nesting depth is capped so hostile input cannot blow the stack.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(JsonValue::parse(deep), InvalidArgument);
}

TEST(JsonIn, RoundTripsEmitterOutput) {
  telemetry::JsonObject out;
  out.set("ev", "submit");
  out.set("wall_s", 1.25);
  out.set("ok", true);
  out.set("name", "quote\"back\\slash");
  const JsonValue v = JsonValue::parse(out.str());
  EXPECT_EQ(v.stringOr("ev", ""), "submit");
  EXPECT_EQ(v.numberOr("wall_s", 0), 1.25);
  EXPECT_TRUE(v.boolOr("ok", false));
  EXPECT_EQ(v.stringOr("name", ""), "quote\"back\\slash");
}

TEST(JsonIn, IntOrReadsOnlyIntegersInRange) {
  // Anything else used to be static_cast to int: 4.5 read as 4, and 1e300
  // was an out-of-range conversion (undefined behaviour).
  for (const char* bad : {"4.5", "1e300", "-1e300", "2147483648"}) {
    const JsonValue v = JsonValue::parse(std::string(R"({"n":)") + bad + "}");
    EXPECT_FALSE(v.find("n")->isInt()) << bad;
    EXPECT_EQ(v.intOr("n", 17), 17) << bad;
  }
  const JsonValue v = JsonValue::parse(
      R"({"max":2147483647,"min":-2147483648,"whole":7.0})");
  EXPECT_EQ(v.intOr("max", 0), 2147483647);
  EXPECT_EQ(v.intOr("min", 0), -2147483647 - 1);
  EXPECT_EQ(v.intOr("whole", 0), 7);
}

// ------------------------------------------------------------- job model

TEST(JobSpecValidation, AcceptsBuiltinAndRandomCases) {
  EXPECT_NO_THROW(validateSpec(tinySpec()));
  JobSpec random = tinySpec();
  random.caseName = "random:42";
  EXPECT_NO_THROW(validateSpec(random));
}

TEST(JobSpecValidation, RejectsBadSpecs) {
  JobSpec spec = tinySpec();
  spec.caseName = "B11";
  EXPECT_THROW(validateSpec(spec), InvalidArgument);
  spec = tinySpec();
  spec.caseName = "random:abc";
  EXPECT_THROW(validateSpec(spec), InvalidArgument);
  spec = tinySpec();
  spec.method = "quantum";
  EXPECT_THROW(validateSpec(spec), InvalidArgument);
  spec = tinySpec();
  spec.pixelNm = 0;
  EXPECT_THROW(validateSpec(spec), InvalidArgument);
  spec = tinySpec();
  spec.maxAttempts = 0;
  EXPECT_THROW(validateSpec(spec), InvalidArgument);
  spec = tinySpec();
  spec.deadlineSeconds = -1.0;
  EXPECT_THROW(validateSpec(spec), InvalidArgument);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    spec = tinySpec();
    spec.deadlineSeconds = bad;
    try {
      validateSpec(spec);
      ADD_FAILURE() << "deadline_s " << bad << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("deadline_s"), std::string::npos)
          << e.what();
    }
  }
}

TEST(JobSpecValidation, JsonRoundTrip) {
  JobSpec spec = tinySpec();
  spec.deadlineSeconds = 1.5;
  spec.maxAttempts = 3;
  telemetry::JsonObject obj;
  specToJson(spec, &obj);
  const JobSpec back = specFromJson(JsonValue::parse(obj.str()));
  EXPECT_EQ(back.caseName, spec.caseName);
  EXPECT_EQ(back.method, spec.method);
  EXPECT_EQ(back.pixelNm, spec.pixelNm);
  EXPECT_EQ(back.iterations, spec.iterations);
  EXPECT_EQ(back.deadlineSeconds, spec.deadlineSeconds);
  EXPECT_EQ(back.maxAttempts, spec.maxAttempts);
  EXPECT_EQ(back.checkpointEvery, spec.checkpointEvery);
}

TEST(JobSpecValidation, RejectsNonIntegerFields) {
  for (const char* field :
       {"pixel_nm", "iterations", "max_attempts", "checkpoint_every"}) {
    for (const char* bad : {"4.5", "1e300", "-1e300", "2147483648"}) {
      const std::string json = std::string(R"({"case":"B1","method":)") +
                               R"("baseline",")" + field + "\":" + bad + "}";
      try {
        (void)specFromJson(JsonValue::parse(json));
        ADD_FAILURE() << json << " was accepted";
      } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(MaskHash, DetectsSingleBitDifference) {
  RealGrid a(8, 8, 0.5);
  RealGrid b = a;
  EXPECT_EQ(maskHashHex(a), maskHashHex(b));
  EXPECT_EQ(maskHashHex(a).size(), 16u);
  b(3, 3) = 0.5000000000000001;
  EXPECT_NE(maskHashHex(a), maskHashHex(b));
}

// ------------------------------------------------------------- the queue

TEST(BoundedQueue, AdmissionControlAndFifoOrder) {
  BoundedJobQueue q(2);
  EXPECT_TRUE(q.tryPush("a"));
  EXPECT_TRUE(q.tryPush("b"));
  EXPECT_FALSE(q.tryPush("c"));  // full: rejected without blocking
  EXPECT_EQ(q.size(), 2u);
  std::string id;
  EXPECT_TRUE(q.pop(&id));
  EXPECT_EQ(id, "a");
  EXPECT_TRUE(q.tryPush("c"));
  EXPECT_TRUE(q.pop(&id));
  EXPECT_EQ(id, "b");
  EXPECT_TRUE(q.pop(&id));
  EXPECT_EQ(id, "c");
}

TEST(BoundedQueue, ForcePushBypassesCapacityForRecovery) {
  BoundedJobQueue q(1);
  EXPECT_TRUE(q.forcePush("r1"));
  EXPECT_TRUE(q.forcePush("r2"));
  EXPECT_FALSE(q.tryPush("new"));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, RemoveCancelsQueuedOnly) {
  BoundedJobQueue q(4);
  ASSERT_TRUE(q.tryPush("a"));
  ASSERT_TRUE(q.tryPush("b"));
  EXPECT_TRUE(q.remove("b"));
  EXPECT_FALSE(q.remove("b"));
  EXPECT_FALSE(q.remove("never-queued"));
  std::string id;
  EXPECT_TRUE(q.pop(&id));
  EXPECT_EQ(id, "a");
}

TEST(BoundedQueue, CloseDrainsThenUnblocks) {
  BoundedJobQueue q(4);
  ASSERT_TRUE(q.tryPush("a"));
  q.close();
  EXPECT_FALSE(q.tryPush("late"));
  std::string id;
  EXPECT_TRUE(q.pop(&id));   // queued items still drain after close
  EXPECT_FALSE(q.pop(&id));  // then pop unblocks with false
}

// ----------------------------------------------------------- the journal

TEST(Journal, ReplayReconstructsTerminalStates) {
  const std::string dir = freshWorkDir("journal_replay");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path);
    telemetry::JsonObject submit;
    submit.set("ev", "submit");
    submit.set("job", "job-000001");
    specToJson(tinySpec(), &submit);
    journal.append(submit);
    telemetry::JsonObject start;
    start.set("ev", "start");
    start.set("job", "job-000001");
    start.set("attempt", 1);
    journal.append(start);
    telemetry::JsonObject done;
    done.set("ev", "done");
    done.set("job", "job-000001");
    done.set("mask_hash", "00000000deadbeef");
    done.set("iterations", 6);
    journal.append(done);

    telemetry::JsonObject submit2;
    submit2.set("ev", "submit");
    submit2.set("job", "job-000002");
    specToJson(tinySpec(), &submit2);
    journal.append(submit2);
    telemetry::JsonObject start2;
    start2.set("ev", "start");
    start2.set("job", "job-000002");
    start2.set("attempt", 2);
    journal.append(start2);
    // job-000002 has no terminal record: the daemon died mid-run.
  }
  const ReplayResult replay = JobJournal::replay(path);
  ASSERT_EQ(replay.jobs.size(), 2u);
  EXPECT_EQ(replay.corruptLines, 0);
  EXPECT_EQ(replay.jobs[0].state, JobState::kDone);
  EXPECT_EQ(replay.jobs[0].maskHash, "00000000deadbeef");
  EXPECT_EQ(replay.jobs[0].iterationsDone, 6);
  EXPECT_EQ(replay.jobs[1].state, JobState::kRunning);  // unfinished
  EXPECT_EQ(replay.jobs[1].attempts, 2);
}

TEST(Journal, ToleratesTornTailAndGarbageLines) {
  const std::string dir = freshWorkDir("journal_torn");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path);
    telemetry::JsonObject submit;
    submit.set("ev", "submit");
    submit.set("job", "job-000001");
    specToJson(tinySpec(), &submit);
    journal.append(submit);
  }
  {
    // A crash mid-append can only tear the final line.
    std::ofstream out(path, std::ios::app);
    out << "{\"ev\":\"done\",\"job\":\"job-0000";  // torn
  }
  const ReplayResult replay = JobJournal::replay(path);
  ASSERT_EQ(replay.jobs.size(), 1u);
  EXPECT_EQ(replay.corruptLines, 1);
  EXPECT_EQ(replay.jobs[0].state, JobState::kQueued);  // still unfinished
}

TEST(Journal, MissingFileMeansFreshStart) {
  const ReplayResult replay =
      JobJournal::replay(freshWorkDir("journal_none") + "/journal.jsonl");
  EXPECT_TRUE(replay.jobs.empty());
  EXPECT_EQ(replay.totalLines, 0);
}

// ------------------------------------------------- service happy path

TEST(JobService, RunsASubmittedJobToCompletion) {
  JobService service(tinyConfig(freshWorkDir("svc_done")));
  const SubmitResult res = service.submit(tinySpec());
  ASSERT_EQ(res.status, SubmitStatus::kAccepted);
  EXPECT_EQ(res.id, "job-000001");
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, res.id) == JobState::kDone; }));
  JobSnapshot snap;
  ASSERT_TRUE(service.snapshot(res.id, &snap));
  EXPECT_EQ(snap.iterationsDone, 6);
  EXPECT_EQ(snap.maskHash.size(), 16u);
  EXPECT_GT(snap.wallSeconds, 0.0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.done, 1);
  EXPECT_EQ(stats.submitted, 1);
}

TEST(JobService, RejectsBadSpecsAtAdmission) {
  JobService service(tinyConfig(freshWorkDir("svc_bad")));
  JobSpec bad = tinySpec();
  bad.caseName = "B999";
  const SubmitResult res = service.submit(bad);
  EXPECT_EQ(res.status, SubmitStatus::kBadRequest);
  EXPECT_FALSE(res.message.empty());
}

// --------------------------------------------- admission under pressure

TEST(JobService, QueueFullRejectionIsTypedAndFast) {
  // One worker pinned by a slow job, capacity-1 queue: the third submit
  // must be rejected as queue_full, and the rejection must come back well
  // under the 100 ms admission contract (tryPush never blocks).
  failpoint::ScopedFailpoints slow("serve.worker:delay=400");
  JobService service(tinyConfig(freshWorkDir("svc_full"), 1, 1));
  const SubmitResult first = service.submit(tinySpec());
  ASSERT_EQ(first.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, first.id) == JobState::kRunning; }));
  const SubmitResult second = service.submit(tinySpec());
  ASSERT_EQ(second.status, SubmitStatus::kAccepted);  // fills the queue

  WallTimer rejectTimer;
  const SubmitResult third = service.submit(tinySpec());
  const double rejectSec = rejectTimer.seconds();
  EXPECT_EQ(third.status, SubmitStatus::kQueueFull);
  EXPECT_LT(rejectSec, 0.1);
  EXPECT_FALSE(third.message.empty());

  // Rejected jobs vanish: not queryable, not replayed.
  EXPECT_FALSE(service.snapshot("job-000003", nullptr));
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, second.id) == JobState::kDone; }));
  EXPECT_EQ(service.stats().rejected, 1);
}

// ------------------------------------------------- deadlines and cancel

TEST(JobService, DeadlineExpiryMidOptimization) {
  // 30 ms per iteration vs a 0.15 s budget: the optimizer must stop at a
  // poll point with the typed expired state, not run to completion.
  failpoint::ScopedFailpoints slow("optimizer.step:delay=30");
  JobService service(tinyConfig(freshWorkDir("svc_deadline")));
  JobSpec spec = tinySpec(1000);
  spec.deadlineSeconds = 0.15;
  const SubmitResult res = service.submit(spec);
  ASSERT_EQ(res.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(eventually(
      [&] { return isTerminal(stateOf(service, res.id)); }));
  JobSnapshot snap;
  ASSERT_TRUE(service.snapshot(res.id, &snap));
  EXPECT_EQ(snap.state, JobState::kExpired);
  EXPECT_LT(snap.iterationsDone, 1000);
  EXPECT_NE(snap.error.find("deadline"), std::string::npos);
  EXPECT_EQ(service.stats().expired, 1);
}

TEST(JobService, CancelsQueuedAndRunningJobs) {
  failpoint::ScopedFailpoints slow("optimizer.step:delay=25");
  JobService service(tinyConfig(freshWorkDir("svc_cancel"), 1, 4));
  const SubmitResult running = service.submit(tinySpec(1000));
  ASSERT_EQ(running.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, running.id) == JobState::kRunning; }));
  const SubmitResult queued = service.submit(tinySpec());
  ASSERT_EQ(queued.status, SubmitStatus::kAccepted);

  // Queued job: canceled immediately, never runs.
  std::string message;
  EXPECT_TRUE(service.cancel(queued.id, &message));
  EXPECT_EQ(stateOf(service, queued.id), JobState::kCanceled);

  // Running job: stops at its next optimizer iteration.
  EXPECT_TRUE(service.cancel(running.id, &message));
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, running.id) == JobState::kCanceled; }));

  // Canceling a terminal job is refused with a reason.
  EXPECT_FALSE(service.cancel(running.id, &message));
  EXPECT_NE(message.find("terminal"), std::string::npos);
  EXPECT_FALSE(service.cancel("job-999999", &message));
  EXPECT_NE(message.find("unknown"), std::string::npos);
}

// ------------------------------------------------------- retry/backoff

TEST(JobService, RetriesWithBackoffThenSucceeds) {
  // First attempt throws, second succeeds.
  failpoint::ScopedFailpoints fp("serve.worker:throw@iter=1");
  JobService service(tinyConfig(freshWorkDir("svc_retry")));
  JobSpec spec = tinySpec();
  spec.maxAttempts = 2;
  const SubmitResult res = service.submit(spec);
  ASSERT_EQ(res.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, res.id) == JobState::kDone; }));
  JobSnapshot snap;
  ASSERT_TRUE(service.snapshot(res.id, &snap));
  EXPECT_EQ(snap.attempts, 2);
  EXPECT_EQ(service.stats().retries, 1);
}

TEST(JobService, FailsAfterExhaustingAttempts) {
  failpoint::ScopedFailpoints fp("serve.worker:throw");  // every attempt
  JobService service(tinyConfig(freshWorkDir("svc_fail")));
  JobSpec spec = tinySpec();
  spec.maxAttempts = 2;
  const SubmitResult res = service.submit(spec);
  ASSERT_EQ(res.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, res.id) == JobState::kFailed; }));
  JobSnapshot snap;
  ASSERT_TRUE(service.snapshot(res.id, &snap));
  EXPECT_EQ(snap.attempts, 2);
  EXPECT_NE(snap.error.find("failpoint"), std::string::npos);
}

// ----------------------------------------- crash recovery (the tentpole)

TEST(JobService, JournalReplayResumesBitIdenticallyAfterSimulatedKill) {
  // Reference: the same job, uninterrupted, in a separate work dir.
  JobSpec spec = tinySpec(12);
  spec.checkpointEvery = 5;  // last checkpoint at iter 10: resume replays 11-12
  std::string referenceHash;
  {
    JobService reference(tinyConfig(freshWorkDir("svc_crash_ref")));
    const SubmitResult res = reference.submit(spec);
    ASSERT_EQ(res.status, SubmitStatus::kAccepted);
    ASSERT_TRUE(eventually(
        [&] { return stateOf(reference, res.id) == JobState::kDone; }));
    JobSnapshot snap;
    ASSERT_TRUE(reference.snapshot(res.id, &snap));
    referenceHash = snap.maskHash;
    ASSERT_FALSE(referenceHash.empty());
  }

  const std::string workDir = freshWorkDir("svc_crash");
  {
    // Incarnation 1: the serve.crash fail point throws after the attempt's
    // work (checkpoints included) but before the terminal journal record —
    // the same window a real SIGKILL hits. The worker vanishes without a
    // trace, exactly like a killed process.
    failpoint::ScopedFailpoints crash("serve.crash:throw@iter=1");
    JobService service(tinyConfig(workDir));
    const SubmitResult res = service.submit(spec);
    ASSERT_EQ(res.status, SubmitStatus::kAccepted);
    ASSERT_TRUE(eventually(
        [&] { return failpoint::hitCount("serve.crash") >= 1; }));
    // The job is stuck running with no terminal journal record.
    EXPECT_EQ(stateOf(service, res.id), JobState::kRunning);
  }

  // Incarnation 2 on the same work dir: replay finds the unfinished job,
  // re-enqueues it, and the optimizer resumes from the checkpoint. The
  // recovered mask must be bit-identical to the uninterrupted run's.
  JobService restarted(tinyConfig(workDir));
  EXPECT_EQ(restarted.recoveredJobs(), 1);
  ASSERT_TRUE(eventually(
      [&] { return stateOf(restarted, "job-000001") == JobState::kDone; }));
  JobSnapshot snap;
  ASSERT_TRUE(restarted.snapshot("job-000001", &snap));
  EXPECT_TRUE(snap.recovered);
  EXPECT_EQ(snap.maskHash, referenceHash);
  EXPECT_EQ(snap.iterationsDone, 12);
}

TEST(JobService, CheckpointDrainLeavesJobsResumable) {
  const std::string workDir = freshWorkDir("svc_drain");
  std::string id;
  {
    failpoint::ScopedFailpoints slow("optimizer.step:delay=25");
    JobService service(tinyConfig(workDir));
    const SubmitResult res = service.submit(tinySpec(1000));
    ASSERT_EQ(res.status, SubmitStatus::kAccepted);
    id = res.id;
    ASSERT_TRUE(eventually(
        [&] { return stateOf(service, id) == JobState::kRunning; }));
    service.drain(DrainMode::kCheckpoint);
    // Interrupted, not terminated: the job went back to queued.
    EXPECT_EQ(stateOf(service, id), JobState::kQueued);
  }
  JobService restarted(tinyConfig(workDir));
  EXPECT_EQ(restarted.recoveredJobs(), 1);
  ASSERT_TRUE(eventually(
      [&] { return stateOf(restarted, id) == JobState::kDone; }, 120.0));
}

TEST(JobService, FinishDrainCompletesBacklog) {
  JobService service(tinyConfig(freshWorkDir("svc_finish"), 1, 8));
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    const SubmitResult res = service.submit(tinySpec());
    ASSERT_EQ(res.status, SubmitStatus::kAccepted);
    ids.push_back(res.id);
  }
  service.drain(DrainMode::kFinish);
  for (const std::string& id : ids) {
    EXPECT_EQ(stateOf(service, id), JobState::kDone) << id;
  }
  EXPECT_EQ(service.submit(tinySpec()).status, SubmitStatus::kShuttingDown);
}

// -------------------------------------- checkpoint-corruption hardening

OptimizerCheckpoint smallCheckpoint() {
  OptimizerCheckpoint ckpt;
  ckpt.iteration = 3;
  ckpt.step = 0.5;
  ckpt.bestObjective = 1.0;
  ckpt.params = RealGrid(4, 4, 0.25);
  ckpt.bestMask = RealGrid(4, 4, 0.5);
  return ckpt;
}

TEST(CheckpointHardening, TypedErrorsForMissingGarbageAndTruncated) {
  const std::string dir = freshWorkDir("ckpt_hard");
  EXPECT_THROW(loadOptimizerCheckpoint(dir + "/missing.ckpt"),
               CheckpointError);
  {
    std::ofstream out(dir + "/garbage.ckpt", std::ios::binary);
    out << "this is not a checkpoint at all, not even close";
  }
  EXPECT_THROW(loadOptimizerCheckpoint(dir + "/garbage.ckpt"),
               CheckpointError);

  const std::string good = dir + "/good.ckpt";
  saveOptimizerCheckpoint(good, smallCheckpoint());
  EXPECT_NO_THROW(loadOptimizerCheckpoint(good));

  // Truncate at every prefix length: each must throw the typed error, and
  // none may crash or silently succeed.
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 16u);
  for (std::size_t len : {bytes.size() - 1, bytes.size() / 2,
                          std::size_t{9}, std::size_t{1}}) {
    // One file per prefix: ext4 flushes a file truncated over its old
    // data when it is closed, which costs tens of milliseconds per write.
    const std::string path = dir + "/trunc" + std::to_string(len) + ".ckpt";
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(len));
    out.close();
    EXPECT_THROW(loadOptimizerCheckpoint(path), CheckpointError)
        << "prefix length " << len;
  }
}

TEST(CheckpointHardening, RejectsVersionSkewAndTrailingBytes) {
  const std::string dir = freshWorkDir("ckpt_version");
  const std::string good = dir + "/good.ckpt";
  saveOptimizerCheckpoint(good, smallCheckpoint());
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  {
    // Bump the version field (bytes 4..7).
    std::string skewed = bytes;
    skewed[4] = static_cast<char>(skewed[4] + 1);
    std::ofstream out(dir + "/skew.ckpt", std::ios::binary);
    out.write(skewed.data(), static_cast<std::streamsize>(skewed.size()));
    out.close();
    try {
      (void)loadOptimizerCheckpoint(dir + "/skew.ckpt");
      FAIL() << "version skew must throw";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
  {
    // Concatenated/doubly-written files must be rejected too.
    std::ofstream out(dir + "/trailing.ckpt", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out << "extra";
    out.close();
    EXPECT_THROW(loadOptimizerCheckpoint(dir + "/trailing.ckpt"),
                 CheckpointError);
  }
}

TEST(CheckpointHardening, CheckpointErrorIsAnInvalidArgument) {
  // Pre-existing catch sites key on InvalidArgument; the typed error must
  // stay inside that hierarchy.
  try {
    throw CheckpointError("unit");
  } catch (const InvalidArgument&) {
    SUCCEED();
  } catch (...) {
    FAIL() << "CheckpointError must derive from InvalidArgument";
  }
}

TEST(JobService, CorruptCheckpointRestartsJobCleanly) {
  // Hand-craft a crashed incarnation whose checkpoint is garbage: replay
  // re-enqueues the job, the resume fails with CheckpointError, and the
  // worker restarts it from scratch instead of failing it.
  const std::string workDir = freshWorkDir("svc_corrupt_ckpt");
  std::filesystem::create_directories(workDir + "/ckpt");
  {
    JobJournal journal(workDir + "/journal.jsonl");
    telemetry::JsonObject submit;
    submit.set("ev", "submit");
    submit.set("job", "job-000001");
    specToJson(tinySpec(), &submit);
    journal.append(submit);
    telemetry::JsonObject start;
    start.set("ev", "start");
    start.set("job", "job-000001");
    start.set("attempt", 1);
    journal.append(start);
  }
  {
    std::ofstream out(workDir + "/ckpt/job-000001.ckpt", std::ios::binary);
    out << "garbage bytes that are definitely not a checkpoint";
  }
  JobService service(tinyConfig(workDir));
  EXPECT_EQ(service.recoveredJobs(), 1);
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, "job-000001") == JobState::kDone; }));
}

// ------------------------------------------------------- pattern store

ServeConfig cachedConfig(const std::string& workDir) {
  ServeConfig cfg = tinyConfig(workDir);
  cfg.patternCacheDir = workDir + "/store";
  return cfg;
}

/// Submit `spec` and wait for it to finish; returns its final snapshot.
JobSnapshot runToEnd(JobService& service, const JobSpec& spec) {
  const SubmitResult res = service.submit(spec);
  EXPECT_EQ(res.status, SubmitStatus::kAccepted);
  EXPECT_TRUE(eventually([&] { return isTerminal(stateOf(service, res.id)); }));
  JobSnapshot snap;
  EXPECT_TRUE(service.snapshot(res.id, &snap));
  return snap;
}

TEST(JobService, AbortedSolveIsNotPublished) {
  // A job whose solve aborts on non-finite objectives must not become the
  // store's answer for its clip: a clean rerun optimizes again and returns
  // the mask a fresh store yields.
  std::string freshHash;
  {
    JobService fresh(cachedConfig(freshWorkDir("svc_unpoisoned")));
    freshHash = runToEnd(fresh, tinySpec()).maskHash;
  }
  JobService service(cachedConfig(freshWorkDir("svc_poisoned")));
  {
    failpoint::ScopedFailpoints nan("objective.evaluate:nan");
    const JobSnapshot poisoned = runToEnd(service, tinySpec());
    EXPECT_EQ(poisoned.iterationsDone, 0);
  }
  EXPECT_EQ(service.stats().cache.inserts, 0u);
  const JobSnapshot clean = runToEnd(service, tinySpec());
  EXPECT_EQ(clean.state, JobState::kDone);
  EXPECT_EQ(clean.iterationsDone, 6);
  EXPECT_EQ(clean.maskHash, freshHash);
}

TEST(JobService, ResultAndStoreCarryTheBestObjective) {
  // Precondition: this job's last iterate is not its best one.
  const JobSpec spec = tinySpec(12);
  OpticsConfig optics;
  optics.pixelNm = spec.pixelNm;
  const LithoSimulator sim(optics);
  IltConfig cfg = defaultIltConfig(parseOpcMethod(spec.method), spec.pixelNm);
  cfg.maxIterations = spec.iterations;
  const OpcResult reference =
      runOpc(sim, rasterize(buildTestcaseByName(spec.caseName), spec.pixelNm),
             parseOpcMethod(spec.method), &cfg);
  ASSERT_EQ(reference.iterations, 12);
  ASSERT_NE(reference.history.back().objective, reference.bestObjective);

  // The solved job reports the returned mask's objective, and so does the
  // store entry it published: a repeat of the job pastes it.
  JobService service(cachedConfig(freshWorkDir("svc_best_objective")));
  const JobSnapshot solved = runToEnd(service, spec);
  ASSERT_EQ(solved.state, JobState::kDone);
  EXPECT_EQ(solved.iterationsDone, 12);
  EXPECT_EQ(solved.objective, reference.bestObjective);
  const JobSnapshot pasted = runToEnd(service, spec);
  ASSERT_EQ(pasted.state, JobState::kDone);
  EXPECT_EQ(pasted.iterationsDone, 0);
  EXPECT_EQ(pasted.maskHash, solved.maskHash);
  EXPECT_EQ(pasted.objective, reference.bestObjective);
}

// ------------------------------------------------------------- protocol

TEST(Protocol, PingUnknownOpAndMalformedJson) {
  JobService service(tinyConfig(freshWorkDir("proto_basic")));
  EXPECT_NE(handleRequestLine(service, R"({"op":"ping"})")
                .response.find("\"pong\":true"),
            std::string::npos);
  EXPECT_NE(handleRequestLine(service, R"({"op":"frobnicate"})")
                .response.find("bad_request"),
            std::string::npos);
  EXPECT_NE(handleRequestLine(service, "{not json").response.find(
                "bad_request"),
            std::string::npos);
}

TEST(Protocol, SubmitWithFractionalPixelIsABadRequest) {
  JobService service(tinyConfig(freshWorkDir("proto_fraction")));
  const std::string response =
      handleRequestLine(service,
                        R"({"op":"submit","case":"B3","pixel_nm":4.5,)"
                        R"("iterations":1})")
          .response;
  EXPECT_NE(response.find("bad_request"), std::string::npos) << response;
  EXPECT_NE(response.find("pixel_nm"), std::string::npos) << response;
}

TEST(Protocol, FarDeadlineJobRunsToDone) {
  // deadline_s 1e300 overflows the steady clock; the token saturates
  // instead of reading it as already expired. A number JSON cannot hold
  // as a finite double is a bad request.
  JobService service(tinyConfig(freshWorkDir("proto_far_deadline")));
  const ProtocolResult submitted = handleRequestLine(
      service,
      R"({"op":"submit","case":"B1","method":"baseline","pixel_nm":16,)"
      R"("iterations":2,"deadline_s":1e300})");
  const JsonValue reply = JsonValue::parse(submitted.response);
  ASSERT_TRUE(reply.boolOr("ok", false)) << submitted.response;
  const std::string id = reply.stringOr("job", "");
  ASSERT_TRUE(eventually([&] { return isTerminal(stateOf(service, id)); }));
  EXPECT_EQ(stateOf(service, id), JobState::kDone);

  EXPECT_NE(handleRequestLine(
                service, R"({"op":"submit","case":"B1","deadline_s":1e999})")
                .response.find("bad_request"),
            std::string::npos);
}

TEST(Protocol, SubmitStatusResultCancelFlow) {
  JobService service(tinyConfig(freshWorkDir("proto_flow")));
  const ProtocolResult submitted = handleRequestLine(
      service,
      R"({"op":"submit","case":"B1","method":"baseline","pixel_nm":16,)"
      R"("iterations":6})");
  const JsonValue reply = JsonValue::parse(submitted.response);
  ASSERT_TRUE(reply.boolOr("ok", false)) << submitted.response;
  const std::string id = reply.stringOr("job", "");
  ASSERT_FALSE(id.empty());

  ASSERT_TRUE(eventually([&] {
    const ProtocolResult status = handleRequestLine(
        service, R"({"op":"status","job":")" + id + R"("})");
    return JsonValue::parse(status.response).stringOr("state", "") == "done";
  }));

  const ProtocolResult result = handleRequestLine(
      service, R"({"op":"result","job":")" + id + R"("})");
  const JsonValue resultJson = JsonValue::parse(result.response);
  EXPECT_TRUE(resultJson.boolOr("ok", false));
  EXPECT_EQ(resultJson.stringOr("mask_hash", "").size(), 16u);

  EXPECT_NE(handleRequestLine(service,
                              R"({"op":"status","job":"job-424242"})")
                .response.find("not_found"),
            std::string::npos);
  EXPECT_NE(handleRequestLine(service, R"({"op":"submit","case":"B77"})")
                .response.find("bad_request"),
            std::string::npos);

  const ProtocolResult stats =
      handleRequestLine(service, R"({"op":"stats"})");
  const JsonValue statsJson = JsonValue::parse(stats.response);
  EXPECT_EQ(statsJson.intOr("done", 0), 1);
  EXPECT_EQ(statsJson.intOr("workers", 0), 1);
}

TEST(Protocol, ResultOnUnfinishedJobIsNotReady) {
  failpoint::ScopedFailpoints slow("optimizer.step:delay=25");
  JobService service(tinyConfig(freshWorkDir("proto_notready")));
  const ProtocolResult submitted = handleRequestLine(
      service,
      R"({"op":"submit","case":"B1","method":"baseline","pixel_nm":16,)"
      R"("iterations":1000})");
  const std::string id =
      JsonValue::parse(submitted.response).stringOr("job", "");
  ASSERT_FALSE(id.empty());
  EXPECT_NE(handleRequestLine(service,
                              R"({"op":"result","job":")" + id + R"("})")
                .response.find("not_ready"),
            std::string::npos);
  std::string message;
  service.cancel(id, &message);
}

TEST(Protocol, ShutdownOpCarriesDrainMode) {
  JobService service(tinyConfig(freshWorkDir("proto_shutdown")));
  const ProtocolResult finish =
      handleRequestLine(service, R"({"op":"shutdown"})");
  EXPECT_TRUE(finish.shutdown);
  EXPECT_EQ(finish.shutdownMode, DrainMode::kFinish);
  const ProtocolResult ckpt = handleRequestLine(
      service, R"({"op":"shutdown","mode":"checkpoint"})");
  EXPECT_TRUE(ckpt.shutdown);
  EXPECT_EQ(ckpt.shutdownMode, DrainMode::kCheckpoint);
  const ProtocolResult bad =
      handleRequestLine(service, R"({"op":"shutdown","mode":"maybe"})");
  EXPECT_FALSE(bad.shutdown);
  EXPECT_NE(bad.response.find("bad_request"), std::string::npos);
}

// -------------------------------------------- concurrent clients (TCP)

TEST(ServeServer, EightClientHammerOverTcp) {
  JobService service(tinyConfig(freshWorkDir("tcp_hammer"), 2, 64));
  ServerOptions opts;
  opts.port = 0;  // ephemeral
  ServeServer server(service, opts);
  CancelToken stop;
  std::thread serverThread([&] { server.serveForever(&stop); });

  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 2;
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        LineChannel channel(connectTcp("127.0.0.1", server.port()));
        std::vector<std::string> ids;
        for (int j = 0; j < kJobsPerClient; ++j) {
          // Distinct random clips so concurrent jobs are not all identical.
          const std::string request =
              R"({"op":"submit","case":"random:)" +
              std::to_string(1000 + c * kJobsPerClient + j) +
              R"(","method":"baseline","pixel_nm":16,"iterations":3})";
          channel.writeLine(request);
          std::string line;
          ASSERT_TRUE(channel.readLine(&line, 15000));
          const JsonValue reply = JsonValue::parse(line);
          ASSERT_TRUE(reply.boolOr("ok", false)) << line;
          ids.push_back(reply.stringOr("job", ""));
        }
        for (const std::string& id : ids) {
          WallTimer timer;
          for (;;) {
            channel.writeLine(R"({"op":"status","job":")" + id + R"("})");
            std::string line;
            ASSERT_TRUE(channel.readLine(&line, 15000));
            const std::string state =
                JsonValue::parse(line).stringOr("state", "");
            if (state == "done") {
              completed.fetch_add(1);
              break;
            }
            ASSERT_NE(state, "failed") << line;
            ASSERT_LT(timer.seconds(), 120.0) << "job " << id << " stuck";
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << ": " << e.what();
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.cancel();
  serverThread.join();
  service.drain(DrainMode::kFinish);

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kClients * kJobsPerClient);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kJobsPerClient);
  EXPECT_EQ(stats.done, kClients * kJobsPerClient);
  // No leaked jobs: everything submitted reached a terminal state.
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.running, 0);
}

// ----------------------------------------------------------- progress bus

TEST(ProgressBus, DeliversInOrderAndTerminalCloses) {
  ProgressBus bus;
  auto sub = bus.subscribe("job-1");
  for (int i = 1; i <= 3; ++i) {
    ProgressEvent ev;
    ev.job = "job-1";
    ev.seq = bus.nextSeq("job-1");
    ev.iteration = i;
    ev.objective = 100.0 - i;
    bus.publish(ev);
  }
  bus.publishTerminal("job-1", "done", 3, 97.0, 12.5);

  ProgressEvent ev;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(sub->next(&ev, 1000));
    EXPECT_EQ(ev.iteration, i);
    EXPECT_FALSE(ev.terminal);
  }
  ASSERT_TRUE(sub->next(&ev, 1000));
  EXPECT_TRUE(ev.terminal);
  EXPECT_EQ(ev.state, "done");
  EXPECT_EQ(ev.iteration, 3);
  EXPECT_FALSE(sub->next(&ev, 10));
  EXPECT_TRUE(sub->finished());
  EXPECT_EQ(sub->dropped(), 0u);
}

TEST(ProgressBus, ReplayRingServesLateSubscriber) {
  ProgressBus bus;
  for (int i = 1; i <= 2; ++i) {
    ProgressEvent ev;
    ev.job = "job-2";
    ev.seq = bus.nextSeq("job-2");
    ev.iteration = i;
    bus.publish(ev);
  }
  bus.publishTerminal("job-2", "failed", 2, 0.0, 3.0);

  // Subscribe after everything already happened: the replay ring delivers
  // the tail and the stream still terminates.
  auto sub = bus.subscribe("job-2");
  ProgressEvent ev;
  ASSERT_TRUE(sub->next(&ev, 1000));
  EXPECT_EQ(ev.iteration, 1);
  ASSERT_TRUE(sub->next(&ev, 1000));
  EXPECT_EQ(ev.iteration, 2);
  ASSERT_TRUE(sub->next(&ev, 1000));
  EXPECT_TRUE(ev.terminal);
  EXPECT_EQ(ev.state, "failed");
  EXPECT_TRUE(sub->finished());
}

TEST(ProgressBus, SlowConsumerDropsOldestNotNewest) {
  ProgressBus bus;
  auto sub = bus.subscribe("job-3");
  constexpr int kPublished = 600;  // far above the 256-event queue cap
  for (int i = 0; i < kPublished; ++i) {
    ProgressEvent ev;
    ev.job = "job-3";
    ev.seq = bus.nextSeq("job-3");
    ev.iteration = i;
    bus.publish(ev);
  }
  bus.publishTerminal("job-3", "done", kPublished - 1, 0.0, 1.0);

  EXPECT_GT(sub->dropped(), 0u);
  ProgressEvent ev;
  ASSERT_TRUE(sub->next(&ev, 1000));
  // The oldest events were evicted, so the first delivered seq has a gap —
  // exactly what the wire protocol documents as the drop signal.
  EXPECT_GT(ev.seq, 0);
  ProgressEvent last;
  while (sub->next(&last, 1000)) ev = last;
  EXPECT_TRUE(ev.terminal);
  EXPECT_EQ(ev.iteration, kPublished - 1);
}

TEST(ProgressBus, SecondTerminalIsNoOp) {
  ProgressBus bus;
  auto sub = bus.subscribe("job-4");
  bus.publishTerminal("job-4", "done", 1, 0.0, 1.0);
  bus.publishTerminal("job-4", "done", 1, 0.0, 1.0);  // must not double-end
  ProgressEvent ev;
  int ends = 0;
  while (sub->next(&ev, 200)) {
    if (ev.terminal) ++ends;
  }
  EXPECT_EQ(ends, 1);
  EXPECT_TRUE(sub->finished());
}

// ------------------------------------------------------------- watch op

TEST(Protocol, WatchValidatesJobId) {
  const std::string workDir = freshWorkDir("watch_validate");
  JobService service(tinyConfig(workDir));
  ProtocolResult missing = handleRequestLine(service, R"({"op":"watch"})");
  EXPECT_NE(missing.response.find("bad_request"), std::string::npos);
  EXPECT_EQ(missing.watch, nullptr);
  ProtocolResult unknown =
      handleRequestLine(service, R"({"op":"watch","job":"nope"})");
  EXPECT_NE(unknown.response.find("not_found"), std::string::npos);
  EXPECT_EQ(unknown.watch, nullptr);
  service.drain(DrainMode::kFinish);
}

TEST(Protocol, WatchStreamsProgressThenEnd) {
  const std::string workDir = freshWorkDir("watch_stream");
  JobService service(tinyConfig(workDir));
  const SubmitResult submit = service.submit(tinySpec(6));
  ASSERT_EQ(submit.status, SubmitStatus::kAccepted);

  const ProtocolResult watch = handleRequestLine(
      service, R"({"op":"watch","job":")" + submit.id + R"("})");
  ASSERT_NE(watch.watch, nullptr) << watch.response;
  const JsonValue ack = JsonValue::parse(watch.response);
  EXPECT_TRUE(ack.boolOr("ok", false)) << watch.response;
  EXPECT_EQ(ack.stringOr("watching", ""), submit.id);

  int progressEvents = 0;
  long long lastSeq = -1;
  bool sawEnd = false;
  ProgressEvent ev;
  WallTimer timer;
  while (timer.seconds() < 60.0) {
    if (!watch.watch->next(&ev, 200)) {
      if (watch.watch->finished()) break;
      continue;
    }
    EXPECT_GT(ev.seq, lastSeq);
    lastSeq = ev.seq;
    if (ev.terminal) {
      sawEnd = true;
      EXPECT_EQ(ev.state, "done");
      break;
    }
    ++progressEvents;
    EXPECT_GT(ev.iteration, 0);
    EXPECT_TRUE(std::isfinite(ev.objective));
  }
  EXPECT_TRUE(sawEnd);
  EXPECT_GT(progressEvents, 0);

  // The streamed JSON for both event shapes parses and carries the
  // documented fields.
  ProgressEvent sample;
  sample.job = submit.id;
  sample.seq = 5;
  sample.iteration = 3;
  sample.objective = 12.0;
  const std::string progressLine = progressEventToJson(sample);
  const JsonValue parsed = JsonValue::parse(progressLine);
  EXPECT_EQ(parsed.stringOr("ev", ""), "progress");
  EXPECT_EQ(parsed.numberOr("iteration", 0), 3.0);
  sample.terminal = true;
  sample.state = "done";
  const JsonValue endParsed = JsonValue::parse(progressEventToJson(sample));
  EXPECT_EQ(endParsed.stringOr("ev", ""), "end");
  EXPECT_EQ(endParsed.stringOr("state", ""), "done");

  service.drain(DrainMode::kFinish);
}

TEST(Protocol, WatchOnFinishedJobEndsImmediately) {
  const std::string workDir = freshWorkDir("watch_done");
  JobService service(tinyConfig(workDir));
  const SubmitResult submit = service.submit(tinySpec(3));
  ASSERT_EQ(submit.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(eventually(
      [&] { return isTerminal(stateOf(service, submit.id)); }, 60.0));

  const ProtocolResult watch = handleRequestLine(
      service, R"({"op":"watch","job":")" + submit.id + R"("})");
  ASSERT_NE(watch.watch, nullptr) << watch.response;
  bool sawEnd = false;
  ProgressEvent ev;
  WallTimer timer;
  while (timer.seconds() < 20.0) {
    if (!watch.watch->next(&ev, 200)) {
      if (watch.watch->finished()) break;
      continue;
    }
    if (ev.terminal) {
      sawEnd = true;
      break;
    }
  }
  EXPECT_TRUE(sawEnd) << "watch on a terminal job must end, not hang";
  service.drain(DrainMode::kFinish);
}

// ------------------------------------------------------------- http plane

TEST(Http, RoutesMetricsHealthzJobsAndFlightrec) {
  const std::string workDir = freshWorkDir("http_routes");
  JobService service(tinyConfig(workDir));
  const SubmitResult submit = service.submit(tinySpec(3));
  ASSERT_EQ(submit.status, SubmitStatus::kAccepted);
  ASSERT_TRUE(eventually(
      [&] { return stateOf(service, submit.id) == JobState::kDone; }, 60.0));

  const HttpResponse health = routeHttpRequest(service, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"ok\":true"), std::string::npos);

  const HttpResponse metrics = routeHttpRequest(service, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.contentType.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.body.find("process_peak_rss_mb"), std::string::npos)
      << "process gauges must be refreshed at scrape time";

  const HttpResponse jobs = routeHttpRequest(service, "/jobs");
  EXPECT_EQ(jobs.status, 200);
  const JsonValue parsed = JsonValue::parse(jobs.body);
  EXPECT_GE(parsed.numberOr("queue_depth", -1.0), 0.0) << jobs.body;
  EXPECT_NE(jobs.body.find("\"job\":\"" + submit.id + "\""),
            std::string::npos)
      << jobs.body;
  EXPECT_NE(jobs.body.find("\"trace\":\"t-"), std::string::npos) << jobs.body;

  const HttpResponse flightrec = routeHttpRequest(service, "/debug/flightrec");
  EXPECT_EQ(flightrec.status, 200);
  EXPECT_EQ(flightrec.contentType, "application/x-ndjson");
  EXPECT_NE(flightrec.body.find("\"kind\":\"admit\""), std::string::npos)
      << "the submit above must have left an admission event";

  const HttpResponse missing = routeHttpRequest(service, "/nope");
  EXPECT_EQ(missing.status, 404);
  service.drain(DrainMode::kFinish);
}

TEST(Http, ServesCurlStyleRequestsOverTcp) {
  const std::string workDir = freshWorkDir("http_tcp");
  JobService service(tinyConfig(workDir));
  HttpServer http(service, 0);
  ASSERT_GT(http.port(), 0);

  const auto fetch = [&](const std::string& path) {
    LineChannel channel(connectTcp("127.0.0.1", http.port()));
    channel.writeAll("GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
    std::string all;
    std::string line;
    while (channel.readLine(&line, 5000)) {
      all += line;
      all += '\n';
    }
    return all;
  };

  const std::string health = fetch("/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("Content-Length:"), std::string::npos);
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos) << health;

  const std::string metrics = fetch("/metrics?refresh=1");  // query stripped
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);

  const std::string missing = fetch("/definitely-not-a-route");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos) << missing;

  {
    LineChannel channel(connectTcp("127.0.0.1", http.port()));
    channel.writeAll("POST /metrics HTTP/1.1\r\n\r\n");
    std::string line;
    ASSERT_TRUE(channel.readLine(&line, 5000));
    EXPECT_NE(line.find("405"), std::string::npos) << line;
  }

  http.stop();
  service.drain(DrainMode::kFinish);
}

}  // namespace
}  // namespace serve
}  // namespace mosaic
