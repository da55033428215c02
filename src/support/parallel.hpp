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
/// Error handling is cooperative: the first exception thrown by a chunk
/// aborts its parallelFor — sibling chunks that have not started yet are
/// skipped (the abort flag is checked per chunk), and the exception is
/// rethrown on the waiting thread once the call's chunks drain.
///
/// Workers park on a condition variable while idle and are joined on a
/// resize (setParallelism), on shutdownParallelPool and at process exit.

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mosaic {

/// Number of worker threads the global pool targets (>= 1). This counts
/// the calling thread: a setting of N runs N-1 pool threads plus the
/// caller inside parallelFor.
int hardwareParallelism();

/// Override the global worker count (0 restores the hardware default).
/// If the pool is already running at a different size it is shut down
/// synchronously — every worker joins — and the next parallelFor restarts
/// it at the new size. Must not be called while parallel work is in
/// flight.
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

/// Shut the pool down synchronously: every worker joins. The next
/// parallelFor lazily restarts it. Called implicitly at process exit and
/// by setParallelism resizes; daemons call it on clean shutdown so
/// sanitizers see the threads join.
void shutdownParallelPool();

/// Executor counters for tests and bench (also exported live as the
/// pool.* metrics, docs/observability.md).
struct PoolStats {
  int configuredWorkers = 0;       ///< what setParallelism resolves to
  int liveThreads = 0;             ///< persistent pool threads running now
  std::uint64_t tasksExecuted = 0;
  std::uint64_t tasksStolen = 0;   ///< tasks taken from another deque
};
PoolStats poolStats();

}  // namespace mosaic
