#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/timer.hpp"

namespace mosaic {
namespace {

std::atomic<int> g_workers{0};  // 0 == hardware default

/// Depth of parallelFor bodies executing on this thread. Non-zero inside a
/// task (pool worker or helping caller) and inside serial runs.
thread_local int t_parallelDepth = 0;

struct DepthGuard {
  DepthGuard() { ++t_parallelDepth; }
  ~DepthGuard() { --t_parallelDepth; }
};

int resolveWorkers() {
  const int requested = g_workers.load();
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// ---------------------------------------------------------------- group

/// Shared completion state of one parallelFor's chunks. Tasks hold a
/// shared_ptr so the state outlives the waiter, which may return as soon
/// as `pending` reaches zero, before the last task's notify.
struct GroupState {
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> abort{false};
  std::mutex mu;
  std::condition_variable cv;  ///< notified when pending drops to zero
  std::exception_ptr error;    ///< first task exception (guarded by mu)

  void recordError(std::exception_ptr e) {
    abort.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::move(e);
  }
};

struct Task {
  std::shared_ptr<GroupState> group;
  std::function<void()> fn;
};

// ----------------------------------------------------------------- pool

/// The process-wide executor: one deque per persistent worker, LIFO for
/// the owner, FIFO steals for everyone else. Deques are mutex-guarded —
/// tasks are chunk-sized (microseconds to seconds), so the lock is never
/// the bottleneck and the scheme stays trivially TSan-clean.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Pool() {
    // Force the metrics registry (and our metric objects) to outlive the
    // pool: worker threads touch them while draining during ~Pool, which
    // runs at static destruction in reverse construction order.
    telemetry::MetricsRegistry& reg = telemetry::metrics();
    tasksCounter_ = &reg.counter("pool.tasks");
    stealsCounter_ = &reg.counter("pool.steals");
    idleHistogram_ = &reg.histogram("pool.idle_ms");
    activeGauge_ = &reg.gauge("pool.active_workers");
    workersGauge_ = &reg.gauge("pool.workers");
  }

  ~Pool() { shutdown(); }

  /// Ensure `threads` persistent workers are running (0 is fine — the
  /// caller then executes everything itself). Restart-on-resize is NOT
  /// done here; setParallelism shuts the pool down explicitly, so a
  /// nested call can never tear threads out from under running tasks.
  void ensureStarted(int threads) {
    if (threads <= 0) return;
    if (started_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(startMu_);
    if (started_.load(std::memory_order_acquire)) return;
    queues_.clear();
    threads_.clear();
    stop_.store(false, std::memory_order_relaxed);
    for (int i = 0; i < threads; ++i) {
      queues_.push_back(std::make_unique<WorkerQueue>());
    }
    threads_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      threads_.emplace_back([this, i] { workerMain(i); });
    }
    liveThreads_.store(threads, std::memory_order_relaxed);
    workersGauge_->set(static_cast<double>(threads));
    started_.store(true, std::memory_order_release);
  }

  /// Join every worker.
  void shutdown() {
    std::lock_guard<std::mutex> lock(startMu_);
    if (!started_.load(std::memory_order_acquire)) return;
    MOSAIC_ASSERT(outstanding_.load() == 0,
                  "parallel pool shutdown/resize with tasks in flight");
    {
      std::lock_guard<std::mutex> sleepLock(sleepMu_);
      stop_.store(true, std::memory_order_release);
      ++signal_;
    }
    sleepCv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    queues_.clear();
    liveThreads_.store(0, std::memory_order_relaxed);
    workersGauge_->set(0.0);
    started_.store(false, std::memory_order_release);
  }

  [[nodiscard]] bool running() const {
    return started_.load(std::memory_order_acquire);
  }

  [[nodiscard]] int liveThreads() const {
    return liveThreads_.load(std::memory_order_relaxed);
  }

  /// Enqueue one task. Pool workers push to the front of their own deque
  /// (LIFO: nested subtasks stay cache-hot on the producing worker);
  /// external threads scatter round-robin onto the back of the deques.
  void submit(Task task) {
    task.group->pending.fetch_add(1, std::memory_order_acq_rel);
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    const int self = t_workerIndex;
    if (self >= 0) {
      WorkerQueue& q = *queues_[static_cast<std::size_t>(self)];
      std::lock_guard<std::mutex> lock(q.mu);
      q.dq.push_front(std::move(task));
    } else {
      const std::size_t slot =
          rr_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
      WorkerQueue& q = *queues_[slot];
      std::lock_guard<std::mutex> lock(q.mu);
      q.dq.push_back(std::move(task));
    }
    {
      std::lock_guard<std::mutex> lock(sleepMu_);
      ++signal_;
    }
    sleepCv_.notify_one();
  }

  /// Help until the group drains: run tasks from the current thread's own
  /// deque (anything there descends from this thread's work), steal tasks
  /// of the *same group* from other deques, and otherwise nap briefly on
  /// the group's condition variable. Every participant keeps executing,
  /// so group waits can never deadlock.
  void waitGroup(const std::shared_ptr<GroupState>& group) {
    while (group->pending.load(std::memory_order_acquire) != 0) {
      Task task;
      if (popOwn(&task) || stealFor(group.get(), &task)) {
        execute(task);
        continue;
      }
      std::unique_lock<std::mutex> lock(group->mu);
      group->cv.wait_for(lock, std::chrono::microseconds(50), [&] {
        return group->pending.load(std::memory_order_acquire) == 0;
      });
    }
  }

  PoolStats stats() const {
    PoolStats s;
    s.configuredWorkers = resolveWorkers();
    s.liveThreads = liveThreads();
    s.tasksExecuted = tasksCounter_->value();
    s.tasksStolen = stealsCounter_->value();
    return s;
  }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> dq;
  };

  static thread_local int t_workerIndex;  ///< -1 on non-pool threads

  void execute(Task& task) {
    const int active = 1 + activeWorkers_.fetch_add(1, std::memory_order_relaxed);
    activeGauge_->set(static_cast<double>(active));
    {
      DepthGuard depth;
      // Cooperative abort: once a sibling threw, remaining chunks are
      // skipped instead of drained.
      if (!task.group->abort.load(std::memory_order_relaxed)) {
        try {
          task.fn();
        } catch (...) {
          task.group->recordError(std::current_exception());
        }
      }
    }
    tasksCounter_->add();
    activeGauge_->set(static_cast<double>(
        activeWorkers_.fetch_sub(1, std::memory_order_relaxed) - 1));
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    if (task.group->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(task.group->mu);
      task.group->cv.notify_all();
    }
  }

  bool popOwn(Task* out) {
    const int self = t_workerIndex;
    if (self < 0 || !started_.load(std::memory_order_acquire)) return false;
    WorkerQueue& q = *queues_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.dq.empty()) return false;
    *out = std::move(q.dq.front());
    q.dq.pop_front();
    return true;
  }

  /// Steal from the back of another deque. `group` restricts the steal to
  /// that group's tasks (used while waiting, so a waiter can't wedge
  /// itself under an unrelated long task); nullptr steals anything.
  bool stealFor(const GroupState* group, Task* out) {
    if (!started_.load(std::memory_order_acquire)) return false;
    const std::size_t n = queues_.size();
    const std::size_t start = static_cast<std::size_t>(
        t_workerIndex >= 0 ? t_workerIndex + 1 : 0);
    for (std::size_t k = 0; k < n; ++k) {
      WorkerQueue& q = *queues_[(start + k) % n];
      std::lock_guard<std::mutex> lock(q.mu);
      if (q.dq.empty()) continue;
      if (group == nullptr) {
        *out = std::move(q.dq.back());
        q.dq.pop_back();
        stealsCounter_->add();
        return true;
      }
      for (auto it = q.dq.rbegin(); it != q.dq.rend(); ++it) {
        if (it->group.get() == group) {
          *out = std::move(*it);
          q.dq.erase(std::next(it).base());
          stealsCounter_->add();
          return true;
        }
      }
    }
    return false;
  }

  void workerMain(int index) {
    t_workerIndex = index;
    bool idleTimed = false;
    WallTimer idleTimer;
    for (;;) {
      Task task;
      if (popOwn(&task) || stealFor(nullptr, &task)) {
        if (idleTimed) {
          idleHistogram_->record(idleTimer.milliseconds());
          idleTimed = false;
        }
        execute(task);
        continue;
      }
      if (!idleTimed) {
        idleTimer.reset();
        idleTimed = true;
      }
      // Brief spin before sleeping: back-to-back parallelFor calls (the
      // dispatch-overhead hot case) hand the next batch to still-warm
      // workers without paying a futex round trip.
      bool found = false;
      for (int spin = 0; spin < 64 && !found; ++spin) {
        std::this_thread::yield();
        found = popOwn(&task) || stealFor(nullptr, &task);
      }
      if (found) {
        idleHistogram_->record(idleTimer.milliseconds());
        idleTimed = false;
        execute(task);
        continue;
      }
      // Read the submit epoch BEFORE the last scan: a task submitted
      // after that scan bumps signal_ past `seen`, so the wait predicate
      // fires instead of napping over ready work.
      std::uint64_t seen;
      {
        std::lock_guard<std::mutex> lock(sleepMu_);
        seen = signal_;
      }
      if (popOwn(&task) || stealFor(nullptr, &task)) {
        idleHistogram_->record(idleTimer.milliseconds());
        idleTimed = false;
        execute(task);
        continue;
      }
      std::unique_lock<std::mutex> lock(sleepMu_);
      if (stop_.load(std::memory_order_acquire)) break;
      sleepCv_.wait_for(lock, std::chrono::milliseconds(100), [&] {
        return stop_.load(std::memory_order_acquire) || signal_ != seen;
      });
      if (stop_.load(std::memory_order_acquire)) break;
    }
    if (idleTimed) idleHistogram_->record(idleTimer.milliseconds());
    t_workerIndex = -1;
  }

  std::mutex startMu_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<int> liveThreads_{0};
  std::atomic<std::size_t> rr_{0};
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<int> activeWorkers_{0};

  std::mutex sleepMu_;
  std::condition_variable sleepCv_;
  std::uint64_t signal_ = 0;  ///< guarded by sleepMu_

  telemetry::Counter* tasksCounter_ = nullptr;
  telemetry::Counter* stealsCounter_ = nullptr;
  telemetry::Histogram* idleHistogram_ = nullptr;
  telemetry::Gauge* activeGauge_ = nullptr;
  telemetry::Gauge* workersGauge_ = nullptr;
};

thread_local int Pool::t_workerIndex = -1;

}  // namespace

// -------------------------------------------------------- public façade

int hardwareParallelism() { return resolveWorkers(); }

void setParallelism(int workers) {
  MOSAIC_CHECK(workers >= 0, "worker count must be >= 0");
  MOSAIC_CHECK(t_parallelDepth == 0,
               "setParallelism inside a parallel region");
  g_workers.store(workers);
  Pool& pool = Pool::instance();
  if (!pool.running()) return;
  // Resize semantics: a change in the effective worker count tears the
  // old pool down right away; the next parallelFor starts the new one
  // lazily.
  if (pool.liveThreads() != resolveWorkers() - 1) {
    pool.shutdown();
  }
}

bool inParallelRegion() { return t_parallelDepth > 0; }

void shutdownParallelPool() { Pool::instance().shutdown(); }

PoolStats poolStats() { return Pool::instance().stats(); }

void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const int workers = resolveWorkers();
  if (workers <= 1 || n == 1) {
    DepthGuard depth;
    for (std::size_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }

  Pool& pool = Pool::instance();
  pool.ensureStarted(workers - 1);

  // Chunking: enough chunks that idle workers can steal meaningful slack
  // (4 per worker), never more chunks than items.
  const std::size_t targetChunks =
      std::min<std::size_t>(n, static_cast<std::size_t>(workers) * 4);
  const std::size_t chunk = (n + targetChunks - 1) / targetChunks;

  auto group = std::make_shared<GroupState>();
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    pool.submit({group, [lo, hi, &fn] {
                   for (std::size_t i = lo; i < hi; ++i) fn(i);
                 }});
  }
  pool.waitGroup(group);

  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(group->mu);
    error = group->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mosaic
