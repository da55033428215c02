#pragma once
/// \file service.hpp
/// JobService — the core of the mosaic_serve daemon, deliberately free of
/// any networking so tests and benches can drive it in-process
/// (docs/serving.md). It owns:
///   - the bounded admission queue (queue.hpp),
///   - a fixed worker pool sharing warm LithoSimulators per pixel size,
///   - per-job cancellation tokens carrying wall-clock deadlines,
///   - the shared fault contract around each job's solve
///     (runAttempts, opc/mosaic.hpp; fail-point site serve.worker), and
///   - the write-ahead job journal plus per-job optimizer checkpoints that
///     make a SIGKILLed daemon resume bit-identically after restart.
///
/// Construction replays the journal found in the work directory and
/// re-enqueues every unfinished job before the first worker starts, so
/// recovery needs no operator action beyond restarting the process.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/store.hpp"
#include "litho/simulator.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "serve/progress.hpp"
#include "serve/queue.hpp"
#include "support/cancel.hpp"

namespace mosaic {

namespace telemetry {
class RunLog;
}

namespace serve {

struct ServeConfig {
  /// Journal, checkpoints and the port file live here. Required.
  std::string workDir;
  int workers = 2;
  int queueCapacity = 8;
  /// Share one warm LithoSimulator per pixel size across jobs (the serve
  /// value proposition: kernels are computed once, not per job). Off =
  /// every job builds a fresh simulator — the cold baseline bm_serve
  /// measures against.
  bool reuseSimulators = true;
  int backoffMs = 25;  ///< retry backoff (multiplied by the attempt number)
  /// Optional per-iteration/job observability log (separate file from the
  /// journal — the journal is a recovery record, not telemetry). Not
  /// owned; must outlive the service.
  telemetry::RunLog* runLog = nullptr;
  /// Pattern-library cache directory (empty = off, docs/caching.md): jobs
  /// whose clip fingerprint exact-hits return the cached mask without
  /// optimizing; near hits warm-start; solved masks are inserted.
  std::string patternCacheDir;
  long long patternCacheMaxBytes = 512ll << 20;  ///< LRU cap (0 = unlimited)
};

enum class SubmitStatus { kAccepted, kQueueFull, kShuttingDown, kBadRequest };

struct SubmitResult {
  SubmitStatus status = SubmitStatus::kAccepted;
  std::string id;       ///< assigned job id (accepted only)
  std::string message;  ///< rejection detail
};

/// How a drain treats running jobs: finish them, or checkpoint + stop so a
/// restarted daemon resumes them (the SIGINT/SIGTERM path).
enum class DrainMode { kFinish, kCheckpoint };

/// Aggregate counters for the stats op.
struct ServiceStats {
  int queued = 0;
  int running = 0;
  int done = 0;
  int failed = 0;
  int canceled = 0;
  int expired = 0;
  long long submitted = 0;
  long long rejected = 0;
  long long retries = 0;
  int recoveredJobs = 0;  ///< re-enqueued by journal replay at startup
  int workers = 0;
  std::size_t queueCapacity = 0;
  bool cacheEnabled = false;  ///< a pattern store is serving this process
  PatternStoreStats cache;    ///< pattern-store counters (when enabled)
};

class JobService {
 public:
  /// Replays the journal in cfg.workDir, re-enqueues unfinished jobs, and
  /// starts the worker pool. Throws on an unusable work directory.
  explicit JobService(const ServeConfig& cfg);

  /// Equivalent to drain(DrainMode::kCheckpoint) if still running.
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Admission control: validates the spec, journals it, and enqueues.
  /// Never blocks on running jobs — a queue_full rejection returns
  /// immediately (the <100 ms admission contract).
  SubmitResult submit(JobSpec spec);

  /// Cancel a queued or running job. Queued jobs terminate immediately;
  /// running jobs stop at their next optimizer iteration. False with a
  /// message when the job is unknown or already terminal.
  bool cancel(const std::string& id, std::string* message);

  /// Snapshot one job; false when the id is unknown.
  bool snapshot(const std::string& id, JobSnapshot* out) const;

  [[nodiscard]] std::vector<JobSnapshot> snapshots() const;

  [[nodiscard]] ServiceStats stats() const;

  /// Stop admissions, then either finish the backlog (kFinish) or stop
  /// every running job at its next iteration with a checkpoint
  /// (kCheckpoint; queued + interrupted jobs stay unterminated in the
  /// journal and resume on restart). Joins the workers. Idempotent.
  void drain(DrainMode mode);

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int recoveredJobs() const { return recoveredJobs_; }
  [[nodiscard]] const std::string& workDir() const { return cfg_.workDir; }

  /// Streaming per-iteration progress (the watch op). Workers publish one
  /// event per optimizer iteration plus a terminal event per job.
  [[nodiscard]] ProgressBus& progress() { return progress_; }

 private:
  /// One job's mutable state. Lives behind a unique_ptr so the token's
  /// address is stable for the optimizer polling it from a worker thread.
  struct Job {
    JobSpec spec;
    JobState state = JobState::kQueued;
    CancelToken token;
    bool userCanceled = false;   ///< cancel op (vs a checkpoint drain)
    bool resumable = false;      ///< checkpoint file is expected to exist
    int attempts = 0;
    int iterationsDone = 0;
    double objective = 0.0;
    double wallSeconds = 0.0;
    std::string maskHash;
    std::string error;
    bool recovered = false;
    /// Trace id assigned at admission (journaled, so a recovered job keeps
    /// its id and the post-restart records still correlate).
    std::uint64_t traceId = 0;
    /// Live worker phase for /jobs and the status op.
    std::string phase = "queued";
  };

  void recoverFromJournal();
  void workerLoop();
  void runJob(Job& job);
  /// Warm-pool lookup (reuseSimulators) or fresh construction.
  const LithoSimulator& simulatorFor(int pixelNm,
                                     std::unique_ptr<LithoSimulator>* cold);
  [[nodiscard]] std::string checkpointPath(const std::string& id) const;
  void journalTerminal(const Job& job);
  [[nodiscard]] JobSnapshot snapshotLocked(const Job& job) const;

  ServeConfig cfg_;
  BoundedJobQueue queue_;
  std::unique_ptr<JobJournal> journal_;

  mutable std::mutex mutex_;  ///< guards jobs_ and each Job's fields
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  std::atomic<long long> nextId_{1};
  std::atomic<long long> submitted_{0};
  std::atomic<long long> rejected_{0};
  std::atomic<long long> retries_{0};
  int recoveredJobs_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drainCheckpoint_{false};
  std::atomic<bool> stopped_{false};

  std::mutex simMutex_;
  std::map<int, std::unique_ptr<LithoSimulator>> warmSims_;

  /// Pattern-library store shared by all workers (null = caching off).
  std::unique_ptr<PatternStore> patternStore_;

  ProgressBus progress_;

  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace mosaic
