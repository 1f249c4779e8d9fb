// Cooperative cancellation and deadlines for level-stepped searches.
//
// A CancelToken is the one-way channel from a query's owner (a client
// thread, the serving engine's admission logic) to the search executing it.
// The search never blocks on the token: engine::ProgramSession::step() —
// and the serving engine between MS-BFS levels — polls should_stop() at
// level granularity and winds down cleanly, leaving the partial BFS state
// valid for BfsProgram::snapshot_result(). Level granularity is deliberate: a level is the
// natural preemption point of the level-synchronous driver, and checking
// any finer would put an atomic load inside the per-edge hot loops.
//
// Thread-safety: request_cancel() may be called from any thread at any
// time, concurrently with the search polling the token. set_deadline() is
// an owner-side setup call — make it before handing the token to a search
// (the serving engine sets it at admission time, which charges queue wait
// against the deadline).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace sembfs {

/// Why a polling search stopped early (ProgramSession::stop_reason()).
enum class StopReason {
  None,       ///< not stopped — the search ran to exhaustion
  Cancelled,  ///< request_cancel() was observed
  Deadline,   ///< the token's deadline passed
};

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cooperative stop; safe from any thread, idempotent.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_release);
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arms an absolute deadline. Owner-side setup: call before the search
  /// starts polling. A zero time_point (the default) means no deadline.
  void set_deadline(std::chrono::steady_clock::time_point t) noexcept {
    deadline_ns_.store(t.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  /// Convenience: deadline `ms` milliseconds from now (<= 0 disarms).
  void set_deadline_after_ms(double ms) noexcept {
    if (ms <= 0.0) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::nanoseconds{
                     static_cast<std::int64_t>(ms * 1e6)});
  }

  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline_ns_.load(std::memory_order_relaxed) != 0;
  }
  /// Milliseconds until the armed deadline (negative once past); +infinity
  /// when no deadline is armed. Owner-side read — the serving engine's
  /// batch planner uses it as the slack term of its captured input.
  [[nodiscard]] double deadline_remaining_ms() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return std::numeric_limits<double>::infinity();
    const std::int64_t now =
        std::chrono::steady_clock::now().time_since_epoch().count();
    return static_cast<double>(d - now) * 1e-6;
  }
  [[nodiscard]] bool deadline_expired() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    return d != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= d;
  }

  /// The poll the search runs between levels: one atomic load when idle,
  /// plus a clock read only while a deadline is armed.
  [[nodiscard]] StopReason should_stop() const noexcept {
    if (cancel_requested()) return StopReason::Cancelled;
    if (deadline_expired()) return StopReason::Deadline;
    return StopReason::None;
  }

  /// Re-arms the token for reuse (slot-pooled queries). Owner-side only —
  /// never while a search is polling.
  void reset() noexcept {
    cancelled_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// steady_clock ns-since-epoch; 0 = no deadline.
  std::atomic<std::int64_t> deadline_ns_{0};
};

}  // namespace sembfs
