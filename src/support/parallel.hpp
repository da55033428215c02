#pragma once
/// \file parallel.hpp
/// Persistent work-stealing executor behind a parallelFor helper
/// (docs/performance.md, "Threading model").
///
/// The process owns one lazily-started pool of long-lived worker threads,
/// each with its own task deque. parallelFor splits its range into chunk
/// tasks, pushes them onto the deques, and the calling thread helps
/// execute them until the range is done — so a call costs a few enqueue
/// operations and a wakeup, not a spawn+join of fresh std::threads.
/// Nested parallelism composes: a parallelFor issued from inside a task
/// enqueues subtasks onto the executing worker's own deque (LIFO, so the
/// worker keeps cache-hot work) and idle workers steal them — inner
/// pixel/corner loops and outer tile loops share one bounded worker set
/// instead of the inner level degrading to serial.
///
/// Error handling is cooperative: the first exception thrown by a task
/// aborts its task group — sibling chunks that have not started yet are
/// skipped (the abort flag is checked per chunk), and the exception is
/// rethrown on the waiting thread once the group drains.
///
/// Because workers are persistent, their thread-local state (notably the
/// scratch grid pool, math/scratch.hpp) stays warm across parallelFor
/// calls. Workers that stay idle past the trim interval run the
/// registered teardown hooks to drop that state, and every worker runs
/// them on pool resize/shutdown, so scratch.resident_bytes stays bounded.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace mosaic {

/// Number of worker threads the global pool targets (>= 1). This counts
/// the calling thread: a setting of N runs N-1 pool threads plus the
/// caller inside parallelFor.
int hardwareParallelism();

/// Override the global worker count (0 restores the hardware default).
/// If the pool is already running at a different size it is shut down
/// synchronously — every worker runs the registered teardown hooks and
/// joins — and the next parallelFor restarts it at the new size. Must not
/// be called while parallel work is in flight.
void setParallelism(int workers);

/// Run fn(i) for i in [begin, end). Iterations are distributed over the
/// global pool in contiguous chunks; the call returns after all complete.
/// fn must be safe to call concurrently for distinct i. Exceptions thrown
/// by fn are rethrown on the calling thread (first one wins) and cancel
/// chunks that have not started yet.
///
/// Nesting: a parallelFor issued from inside another parallelFor body
/// enqueues its chunks as steal-able subtasks of the same pool — the
/// calling worker executes them LIFO and idle workers steal, so nested
/// loops genuinely run in parallel while the total thread count stays
/// bounded by setParallelism.
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn);

/// True while the calling thread is executing inside a parallelFor body
/// (i.e. the thread is a pool worker running a task, or a caller helping
/// its own group). Exposed for tests.
bool inParallelRegion();

/// Register a hook that worker threads run right before they exit and
/// when they idle-trim, for thread-local cleanup that must not outlive
/// the thread (the scratch grid pool registers scratch::clearThreadPool
/// here — without it every dead or parked worker pins up to 6 cached
/// full-size grids). Hooks run in registration order. The calling thread
/// of a parallelFor is not torn down (it lives on); long-lived daemon
/// workers (serve) call runWorkerTeardowns() themselves on loop exit.
void registerWorkerTeardown(void (*hook)());

/// Run every registered teardown hook on the calling thread.
void runWorkerTeardowns();

/// A pool worker idle for longer than this runs the worker teardown hooks
/// once (dropping its cached scratch grids) and keeps sleeping; the next
/// task re-warms its state. 0 disables trimming. Default 2000 ms. Takes
/// effect immediately.
void setPoolIdleTrimMs(int ms);

/// Shut the pool down synchronously: every worker runs the teardown hooks
/// and joins. The next parallelFor lazily restarts it. Called implicitly
/// at process exit and by setParallelism resizes; daemons call it on
/// clean shutdown so sanitizers see the threads join.
void shutdownParallelPool();

/// Executor counters for tests and bench (also exported live as the
/// pool.* metrics, docs/observability.md).
struct PoolStats {
  int configuredWorkers = 0;       ///< what setParallelism resolves to
  int liveThreads = 0;             ///< persistent pool threads running now
  std::uint64_t tasksExecuted = 0;
  std::uint64_t tasksStolen = 0;   ///< tasks taken from another deque
  std::uint64_t idleTrims = 0;
};
PoolStats poolStats();

/// Structured nested parallelism: a group of subtasks that idle workers
/// steal. parallelFor is built on this; it is public so library code can
/// fan out irregular task sets (not just index ranges) onto the pool.
///
///   TaskGroup g;
///   for (auto& item : items) g.run([&item] { process(item); });
///   g.wait();  // helps execute, rethrows the first task exception
///
/// The first exception cancels tasks that have not started (checked per
/// task) and is rethrown by wait(). The destructor waits but swallows
/// errors — call wait() to observe them. A TaskGroup must be waited on
/// the thread that created it; run() may be called from any thread until
/// wait() returns.
class TaskGroup {
 public:
  TaskGroup();
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue one subtask (executed inline when the pool has no threads).
  void run(std::function<void()> fn);
  /// Help execute until every subtask finished; rethrow the first error.
  void wait();
  /// Cooperatively cancel subtasks that have not started yet.
  void cancel();
  /// True once a task threw or cancel() was called.
  [[nodiscard]] bool canceled() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace mosaic
