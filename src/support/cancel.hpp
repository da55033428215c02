#pragma once
/// \file cancel.hpp
/// Cooperative cancellation token shared between a controller (a signal
/// handler, the serve daemon's drain path, a client cancel request) and a
/// long-running computation (the ILT optimizer loop, the tile scheduler).
///
/// The token carries two independent stop conditions:
///   - an explicit cancel() flag, and
///   - an optional wall-clock deadline (steady clock).
/// Computations poll stopRequested() at safe points (typically once per
/// optimizer iteration) and unwind gracefully — checkpointing first if
/// checkpointing is armed — instead of being torn down mid-update.
///
/// cancel() is a single lock-free atomic store, so it is safe to call from
/// an async signal handler (see support/signal.hpp) and from any thread.

#include <atomic>
#include <chrono>

namespace mosaic {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Request cancellation. Idempotent, thread- and signal-safe.
  void cancel() { canceled_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool canceled() const {
    return canceled_.load(std::memory_order_relaxed);
  }

  /// Arm a wall-clock deadline. Passing Clock::time_point{} clears it.
  void setDeadline(Clock::time_point deadline) {
    deadlineNs_.store(deadline.time_since_epoch().count(),
                      std::memory_order_relaxed);
  }

  /// Arm a deadline `seconds` from now (<= 0 or NaN clears it). A deadline
  /// past the clock's range, +inf included, saturates to its last time
  /// point, which never expires: converting an out-of-range double to
  /// integer ticks is undefined behaviour.
  void setDeadlineIn(double seconds) {
    if (!(seconds > 0.0)) {
      deadlineNs_.store(0, std::memory_order_relaxed);
      return;
    }
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double> wanted(seconds);
    // A second to spare absorbs the rounding of the double comparison.
    if (wanted >= Clock::time_point::max() - now - std::chrono::seconds(1)) {
      setDeadline(Clock::time_point::max());
      return;
    }
    setDeadline(now + std::chrono::duration_cast<Clock::duration>(wanted));
  }

  /// The armed deadline; Clock::time_point{} when none is.
  [[nodiscard]] Clock::time_point deadline() const {
    return Clock::time_point(
        Clock::duration(deadlineNs_.load(std::memory_order_relaxed)));
  }

  /// True iff a deadline is armed and has passed.
  [[nodiscard]] bool expired() const {
    const auto ns = deadlineNs_.load(std::memory_order_relaxed);
    return ns != 0 && Clock::now().time_since_epoch().count() >= ns;
  }

  /// The poll entry point for computations: canceled or past deadline.
  [[nodiscard]] bool stopRequested() const { return canceled() || expired(); }

  /// Clear both conditions (for token reuse in tests and the CLI).
  void reset() {
    canceled_.store(false, std::memory_order_relaxed);
    deadlineNs_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> canceled_{false};
  /// Deadline as steady-clock nanoseconds since epoch; 0 = no deadline.
  std::atomic<Clock::rep> deadlineNs_{0};
};

}  // namespace mosaic
