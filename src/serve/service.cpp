#include "serve/service.hpp"

#include <cstdio>
#include <filesystem>

#include "geometry/raster.hpp"
#include "suite/testcases.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/log.hpp"
#include "support/telemetry/flightrec.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace mosaic {
namespace serve {
namespace {

Layout buildJobLayout(const std::string& caseName) {
  if (caseName.rfind("random:", 0) == 0) {
    return buildRandomClip(std::strtoull(caseName.c_str() + 7, nullptr, 10));
  }
  return buildTestcaseByName(caseName);
}

std::string formatJobId(long long n) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "job-%06lld", n);
  return buf;
}

/// Numeric suffix of "job-NNNNNN" ids (0 for foreign ids), so recovery can
/// continue the id sequence without colliding with replayed jobs.
long long jobIdNumber(const std::string& id) {
  if (id.rfind("job-", 0) != 0) return 0;
  return std::strtoll(id.c_str() + 4, nullptr, 10);
}

}  // namespace

JobService::JobService(const ServeConfig& cfg)
    : cfg_(cfg), queue_(static_cast<std::size_t>(cfg.queueCapacity)) {
  MOSAIC_CHECK(!cfg_.workDir.empty(), "serve work directory is required");
  MOSAIC_CHECK(cfg_.workers >= 1, "serve workers must be >= 1");
  MOSAIC_CHECK(cfg_.queueCapacity >= 1, "serve queue capacity must be >= 1");
  MOSAIC_CHECK(cfg_.backoffMs >= 0, "serve backoff must be >= 0");
  std::filesystem::create_directories(cfg_.workDir);
  std::filesystem::create_directories(cfg_.workDir + "/ckpt");

  // Replay before opening for append: the journal of the previous
  // incarnation is the complete recovery record.
  recoverFromJournal();
  journal_ = std::make_unique<JobJournal>(cfg_.workDir + "/journal.jsonl");

  if (!cfg_.patternCacheDir.empty()) {
    patternStore_ = std::make_unique<PatternStore>(
        PatternStoreConfig{cfg_.patternCacheDir, cfg_.patternCacheMaxBytes});
    LOG_INFO("pattern cache enabled at " << cfg_.patternCacheDir << " ("
             << patternStore_->stats().entries << " entries)");
  }

  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

JobService::~JobService() { drain(DrainMode::kCheckpoint); }

void JobService::recoverFromJournal() {
  const ReplayResult replay =
      JobJournal::replay(cfg_.workDir + "/journal.jsonl");
  if (replay.corruptLines > 0) {
    LOG_WARN("journal replay skipped " << replay.corruptLines
                                       << " corrupt line(s) (torn tail?)");
  }
  long long maxId = 0;
  for (const ReplayedJob& rj : replay.jobs) {
    maxId = std::max(maxId, jobIdNumber(rj.spec.id));
    auto job = std::make_unique<Job>();
    job->spec = rj.spec;
    job->traceId = rj.traceId != 0 ? rj.traceId : telemetry::newTraceId();
    job->attempts = rj.attempts;
    job->iterationsDone = rj.iterationsDone;
    job->objective = rj.objective;
    job->wallSeconds = rj.wallSeconds;
    job->maskHash = rj.maskHash;
    job->error = rj.error;
    const bool unfinished =
        rj.state == JobState::kQueued || rj.state == JobState::kRunning;
    if (unfinished) {
      // Submitted (and possibly started) but never terminated: the daemon
      // died or drained in checkpoint mode. Re-enqueue; the worker resumes
      // from the job's optimizer checkpoint when one exists, which is what
      // makes the recovered result bit-identical to an uninterrupted run.
      job->state = JobState::kQueued;
      job->resumable = true;
      job->recovered = true;
      ++recoveredJobs_;
      {
        telemetry::TraceScope traceScope(job->traceId);
        telemetry::flightrec::record("admit", rj.spec.id + " recovered");
      }
      queue_.forcePush(rj.spec.id);
    } else {
      // Terminal: keep the record so status/result survive restarts.
      job->state = rj.state;
    }
    jobs_.emplace(rj.spec.id, std::move(job));
  }
  nextId_.store(maxId + 1, std::memory_order_relaxed);
  if (recoveredJobs_ > 0) {
    LOG_INFO("recovered " << recoveredJobs_
                          << " unfinished job(s) from the journal");
    telemetry::metrics().counter("serve.recovered").add(
        static_cast<std::uint64_t>(recoveredJobs_));
  }
}

SubmitResult JobService::submit(JobSpec spec) {
  WallTimer admitTimer;
  MOSAIC_FAILPOINT("serve.submit");
  try {
    validateSpec(spec);
  } catch (const Error& e) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    telemetry::metrics().counter("serve.rejected").add();
    return {SubmitStatus::kBadRequest, "", e.what()};
  }
  if (draining()) {
    return {SubmitStatus::kShuttingDown, "", "service is draining"};
  }

  spec.id = formatJobId(nextId_.fetch_add(1, std::memory_order_relaxed));
  const std::uint64_t traceId = telemetry::newTraceId();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto job = std::make_unique<Job>();
    job->spec = spec;
    job->traceId = traceId;
    jobs_.emplace(spec.id, std::move(job));
  }
  // WAL ordering: the submit record hits the journal before the job can
  // run, so a crash at any later point still replays it. The trace id is
  // journaled so a recovered job keeps the one assigned here.
  telemetry::JsonObject record;
  record.set("ev", "submit");
  record.set("job", spec.id);
  record.set("trace", telemetry::traceIdString(traceId));
  specToJson(spec, &record);
  journal_->append(record);
  {
    // Record the admission under the job's trace scope so the flight
    // recorder's admit event carries the same id /jobs reports.
    telemetry::TraceScope traceScope(traceId);
    telemetry::flightrec::record("admit", spec.id + " case=" + spec.caseName);
  }

  if (!queue_.tryPush(spec.id)) {
    // Roll the admission back, in the journal too, so replay forgets it.
    telemetry::JsonObject reject;
    reject.set("ev", "rejected");
    reject.set("job", spec.id);
    journal_->append(reject);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      jobs_.erase(spec.id);
    }
    rejected_.fetch_add(1, std::memory_order_relaxed);
    telemetry::metrics().counter("serve.rejected").add();
    telemetry::metrics().histogram("serve.admission").record(
        admitTimer.seconds() * 1e6);
    if (queue_.closed()) {
      return {SubmitStatus::kShuttingDown, "", "service is draining"};
    }
    return {SubmitStatus::kQueueFull, "",
            "queue at capacity (" + std::to_string(queue_.capacity()) + ")"};
  }

  submitted_.fetch_add(1, std::memory_order_relaxed);
  telemetry::metrics().counter("serve.submitted").add();
  telemetry::metrics().gauge("serve.queue_depth").set(
      static_cast<double>(queue_.size()));
  telemetry::metrics().histogram("serve.admission").record(
      admitTimer.seconds() * 1e6);
  return {SubmitStatus::kAccepted, spec.id, ""};
}

bool JobService::cancel(const std::string& id, std::string* message) {
  Job* job = nullptr;
  bool canceledWhileQueued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      if (message) *message = "unknown job id: " + id;
      return false;
    }
    job = it->second.get();
    if (job->state != JobState::kQueued && job->state != JobState::kRunning) {
      if (message) {
        *message = "job already terminal: " +
                   std::string(jobStateName(job->state));
      }
      return false;
    }
    job->userCanceled = true;
    job->token.cancel();
    if (job->state == JobState::kQueued && queue_.remove(id)) {
      // Still in the queue: terminate here; no worker will see it.
      job->state = JobState::kCanceled;
      job->error = "canceled while queued";
      canceledWhileQueued = true;
    }
    // Else a worker owns it (or is about to pop it) and will observe the
    // token/userCanceled flag and journal the terminal record itself.
  }
  if (canceledWhileQueued) {
    journalTerminal(*job);
    telemetry::metrics().counter("serve.canceled").add();
  }
  if (message) message->clear();
  return true;
}

bool JobService::snapshot(const std::string& id, JobSnapshot* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  if (out) *out = snapshotLocked(*it->second);
  return true;
}

std::vector<JobSnapshot> JobService::snapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobSnapshot> result;
  result.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) result.push_back(snapshotLocked(*job));
  return result;
}

JobSnapshot JobService::snapshotLocked(const Job& job) const {
  JobSnapshot snap;
  snap.spec = job.spec;
  snap.state = job.state;
  snap.attempts = job.attempts;
  snap.iterationsDone = job.iterationsDone;
  snap.objective = job.objective;
  snap.wallSeconds = job.wallSeconds;
  snap.maskHash = job.maskHash;
  snap.error = job.error;
  snap.recovered = job.recovered;
  // Terminal jobs report their state as the phase, so a watcher of /jobs
  // never sees a stale "optimize" on a job that already finished.
  const bool terminal =
      job.state != JobState::kQueued && job.state != JobState::kRunning;
  snap.phase = terminal ? jobStateName(job.state) : job.phase;
  snap.traceId = telemetry::traceIdString(job.traceId);
  return snap;
}

ServiceStats JobService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) {
      switch (job->state) {
        case JobState::kQueued:
          ++s.queued;
          break;
        case JobState::kRunning:
          ++s.running;
          break;
        case JobState::kDone:
          ++s.done;
          break;
        case JobState::kFailed:
          ++s.failed;
          break;
        case JobState::kCanceled:
          ++s.canceled;
          break;
        case JobState::kExpired:
          ++s.expired;
          break;
      }
    }
  }
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.recoveredJobs = recoveredJobs_;
  s.workers = cfg_.workers;
  s.queueCapacity = queue_.capacity();
  if (patternStore_) {
    s.cacheEnabled = true;
    s.cache = patternStore_->stats();
  }
  return s;
}

void JobService::drain(DrainMode mode) {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_relaxed);
  if (mode == DrainMode::kCheckpoint) {
    drainCheckpoint_.store(true, std::memory_order_relaxed);
    // Queued jobs: drop them from the queue. Their journal entries have no
    // terminal record, so a restarted service re-enqueues every one.
    queue_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) {
        // Running jobs stop at their next optimizer iteration; the
        // optimizer writes a final checkpoint before unwinding.
        job->token.cancel();
      }
      if (job->state == JobState::kQueued) job->resumable = true;
    }
  }
  queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

std::string JobService::checkpointPath(const std::string& id) const {
  return cfg_.workDir + "/ckpt/" + id + ".ckpt";
}

void JobService::journalTerminal(const Job& job) {
  telemetry::JsonObject record;
  std::string state;
  int iterations = 0;
  double objective = 0.0;
  double wallMs = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state = jobStateName(job.state);
    iterations = job.iterationsDone;
    objective = job.objective;
    wallMs = job.wallSeconds * 1e3;
    record.set("ev", state);
    record.set("job", job.spec.id);
    record.set("attempts", job.attempts);
    record.set("iterations", job.iterationsDone);
    record.set("objective", job.objective);
    record.set("wall_s", job.wallSeconds);
    if (!job.maskHash.empty()) record.set("mask_hash", job.maskHash);
    if (!job.error.empty()) record.set("error", job.error);
  }
  journal_->append(record);
  // Every terminal transition funnels through here, so this is the single
  // point that closes the job's progress stream and annotates the flight
  // recorder with the final state.
  telemetry::flightrec::record("state", job.spec.id + " -> " + state);
  progress_.publishTerminal(job.spec.id, state, iterations, objective, wallMs);
}

const LithoSimulator& JobService::simulatorFor(
    int pixelNm, std::unique_ptr<LithoSimulator>* cold) {
  OpticsConfig optics;
  optics.pixelNm = pixelNm;
  if (!cfg_.reuseSimulators) {
    // Cold path (bm_serve's baseline): every job pays the kernel
    // eigendecomposition again.
    *cold = std::make_unique<LithoSimulator>(optics);
    return **cold;
  }
  std::lock_guard<std::mutex> lock(simMutex_);
  auto it = warmSims_.find(pixelNm);
  if (it == warmSims_.end()) {
    auto sim = std::make_unique<LithoSimulator>(optics);
    // Pre-warm the kernel sets for every focus the optimizer will touch,
    // so later jobs at this pixel size reuse them lock-free through the
    // simulator's const (thread-safe) interface.
    const IltConfig cfg =
        defaultIltConfig(OpcMethod::kMosaicFast, pixelNm);
    std::vector<double> focuses{nominalCorner().focusNm};
    for (const ProcessCorner& corner : cfg.pvbCorners) {
      focuses.push_back(corner.focusNm);
    }
    sim->warmKernels(focuses);
    it = warmSims_.emplace(pixelNm, std::move(sim)).first;
  }
  return *it->second;
}

void JobService::workerLoop() {
  std::string id;
  while (queue_.pop(&id)) {
    Job* job = nullptr;
    bool skipCanceled = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;  // rejected + erased in a race
      job = it->second.get();
      if (job->userCanceled) {
        job->state = JobState::kCanceled;
        if (job->error.empty()) job->error = "canceled while queued";
        skipCanceled = true;
      }
    }
    if (skipCanceled) {
      journalTerminal(*job);
      telemetry::metrics().counter("serve.canceled").add();
      continue;
    }
    if (drainCheckpoint_.load(std::memory_order_relaxed)) {
      // Popped during a checkpoint drain: leave it queued-and-unterminated
      // for the next incarnation.
      std::lock_guard<std::mutex> lock(mutex_);
      job->state = JobState::kQueued;
      job->resumable = true;
      continue;
    }
    telemetry::metrics().gauge("serve.queue_depth").set(
        static_cast<double>(queue_.size()));
    runJob(*job);
  }
}

void JobService::runJob(Job& job) {
  WallTimer jobTimer;
  // Install the job's trace context on this worker for the whole run:
  // spans, run-log records and flight-recorder events emitted below all
  // pick it up implicitly (trace.hpp).
  telemetry::TraceScope traceScope(job.traceId);
  AttemptPolicy policy;
  policy.failpointSite = "serve.worker";
  policy.label = job.spec.id;
  policy.maxAttempts = job.spec.maxAttempts;
  policy.backoffMs = cfg_.backoffMs;
  policy.checkpointPath = checkpointPath(job.spec.id);
  policy.checkpointEvery = job.spec.checkpointEvery;
  policy.cancel = &job.token;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.state = JobState::kRunning;
    job.phase = "starting";
    policy.resume = job.resumable;
    policy.firstAttempt = job.attempts + 1;
  }
  telemetry::flightrec::record("state", job.spec.id + " -> running");
  // The deadline clock starts when the job first runs (not at submission:
  // queue wait is the service's fault, not the client's budget).
  if (job.spec.deadlineSeconds > 0.0 && !job.token.expired()) {
    job.token.setDeadlineIn(job.spec.deadlineSeconds);
  }
  const auto setPhase = [&](const char* phase) {
    std::lock_guard<std::mutex> lock(mutex_);
    job.phase = phase;
  };

  // Maps a token-initiated stop to its terminal state (or to "leave
  // unterminated" during a checkpoint drain).
  const auto finishStopped = [&](int iterationsDone) {
    bool drainLeave = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.iterationsDone = iterationsDone;
      job.wallSeconds = jobTimer.seconds();
      if (drainCheckpoint_.load(std::memory_order_relaxed) &&
          !job.userCanceled) {
        job.state = JobState::kQueued;  // resumes on restart
        job.resumable = true;
        drainLeave = true;
      } else if (job.userCanceled || job.token.canceled()) {
        job.state = JobState::kCanceled;
        job.error = "canceled by client";
      } else {
        job.state = JobState::kExpired;
        job.error = "deadline_exceeded after " +
                    std::to_string(job.spec.deadlineSeconds) + " s";
      }
    }
    if (drainLeave) return;
    journalTerminal(job);
    telemetry::metrics()
        .counter(job.state == JobState::kCanceled ? "serve.canceled"
                                                  : "serve.expired")
        .add();
  };

  // One attempt (docs/robustness.md, "Fault contract"): the write-ahead
  // start record, the simulator and its kernels, the store consult and the
  // solve are all retried together.
  TileFingerprint fp;
  bool pasted = false;
  CachedSolution cached;
  OpcResult res;
  const AttemptOutcome attempts =
      runAttempts(policy, [&](int attempt, OptimizeOptions& opt) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          job.attempts = attempt;
        }
        telemetry::JsonObject start;
        start.set("ev", "start");
        start.set("job", job.spec.id);
        start.set("attempt", attempt);
        journal_->append(start);

        const Layout layout = buildJobLayout(job.spec.caseName);
        std::unique_ptr<LithoSimulator> coldSim;
        const LithoSimulator& sim = simulatorFor(job.spec.pixelNm, &coldSim);
        const BitGrid target = rasterize(layout, job.spec.pixelNm);
        const OpcMethod method = parseOpcMethod(job.spec.method);
        IltConfig cfg = defaultIltConfig(method, job.spec.pixelNm);
        if (job.spec.iterations > 0) cfg.maxIterations = job.spec.iterations;

        // Pattern-library consult: the whole clip is the "core" (jobs have
        // no halo). An exact hit finishes the job without optimizing.
        if (patternStore_) {
          setPhase("cache_lookup");
          const RectNm clipCore{0, 0, layout.sizeNm, layout.sizeNm};
          fp = fingerprintWindow(
              layout, clipCore, job.spec.pixelNm,
              solverConfigDigest(sim.optics(), cfg, static_cast<int>(method),
                                 layout.sizeNm, job.spec.pixelNm));
          StoreConsult hit = consultStore(*patternStore_, fp, target, &cfg);
          if (hit.kind == CacheHitKind::kExact) {
            pasted = true;
            cached = std::move(hit.solution);
            return;
          }
          opt.warmStartMask = std::move(hit.solution.mask);
        }

        opt.runLog = cfg_.runLog;
        // Per-iteration streaming: refresh the job's live fields (status
        // op, GET /jobs) and publish to any watch subscribers. Bounded-
        // buffer publish only — a stalled watcher never slows this worker.
        opt.progressSink = [this, &job](const IterationRecord& r) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            job.iterationsDone = r.iteration;
            job.objective = r.objective;
          }
          ProgressEvent event;
          event.job = job.spec.id;
          event.seq = progress_.nextSeq(job.spec.id);
          event.iteration = r.iteration;
          event.objective = r.objective;
          event.fTarget = r.targetTerm;
          event.fPvb = r.pvbTerm;
          event.gradRms = r.rmsGradient;
          event.wallMs = r.wallMs;
          progress_.publish(event);
        };
        setPhase("optimize");
        res = runOpc(sim, target, method, &cfg, {}, {}, opt);
      });

  if (attempts.attempts > policy.firstAttempt) {
    const int retried = attempts.attempts - policy.firstAttempt;
    retries_.fetch_add(retried, std::memory_order_relaxed);
    telemetry::metrics().counter("serve.retries").add(retried);
  }
  {
    // An attempt the fail-point site failed never reached the body.
    std::lock_guard<std::mutex> lock(mutex_);
    job.attempts = attempts.attempts;
    if (!attempts.ok) job.error = attempts.error;
    if (!attempts.ok && !attempts.stopped) {
      job.state = JobState::kFailed;
      job.wallSeconds = jobTimer.seconds();
    }
  }
  if (attempts.stopped) {
    finishStopped(0);  // a cancel or the deadline beat the retry
    return;
  }
  if (!attempts.ok) {
    journalTerminal(job);
    telemetry::metrics().counter("serve.failed").add();
    return;
  }

  if (!pasted) {
    setPhase("finalize");
    // Simulated-kill site: fires after the work (and its checkpoints) but
    // before the terminal journal record — exactly the window a real
    // SIGKILL would hit. The worker vanishes without journaling, so the
    // journal looks like a crashed daemon's and the restarted service's
    // replay re-runs the job.
    try {
      MOSAIC_FAILPOINT("serve.crash");
    } catch (const Error&) {
      return;
    }
    if (res.stopReason == StopReason::kCanceled) {
      finishStopped(res.iterations);
      return;
    }
    if (patternStore_) publishSolve(*patternStore_, fp, res);
  }

  // The terminal objective is the returned mask's: the best the solve
  // reached, or what the pasted solve recorded.
  const std::string hash =
      maskHashHex(pasted ? cached.mask : res.maskTwoLevel);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.state = JobState::kDone;
    job.maskHash = hash;
    job.iterationsDone = pasted ? 0 : res.iterations;
    job.objective = pasted ? cached.objective : res.bestObjective;
    job.wallSeconds = jobTimer.seconds();
    job.error.clear();
  }
  // A finished job must not leave resume state behind: a stale checkpoint
  // would poison a future job that reuses the id space.
  std::remove(policy.checkpointPath.c_str());
  journalTerminal(job);
  telemetry::metrics().counter("serve.completed").add();
  telemetry::metrics().histogram("serve.job_wall").record(
      jobTimer.seconds() * 1e6);
}

}  // namespace serve
}  // namespace mosaic
