// Asynchronous I/O scheduler for the simulated NVM devices.
//
// Synchronous read(2)-style requests issued inline on the BFS compute
// workers keep at most one request per worker in the device queue — far
// from the avgqu-sz ~36-56 the paper measures (Figure 12), and with no
// overlap between edge processing and I/O. This scheduler is the
// FlashGraph/libaio-style alternative every semi-external top-down level
// reads through: a pool of `queue_depth` background I/O workers that accept
// byte-range read requests and complete them via futures or callbacks.
// Compute threads post the next dequeue batch's merged ranges and keep
// processing already-fetched adjacencies while the device services the new
// requests, keeping the device queue full. ExternalForwardGraph owns one
// scheduler, sized from its devices' channels and the traversal's workers.
//
// Every request still flows through NvmDevice::submit_read, so IoStats'
// queue-length integral (Figure 12's avgqu-sz) and request-size counters
// (Figure 13's avgrq-sz) observe the deepened queue for real.
//
// Failure domain: requests complete with an IoResult VALUE — never by
// throwing across the worker-thread boundary. A failed attempt is retried
// with exponential backoff under a RetryPolicy (the scheduler's configured
// one, or one carried by the request, so traversals with different
// policies can share one scheduler); an optional per-request deadline
// bounds how long a request may be outstanding; and an error budget makes
// the scheduler fail fast (no device traffic) once too many requests have
// exhausted their retries, so a dying device does not stall a whole BFS
// level at full retry cost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "nvm/fault_plan.hpp"
#include "nvm/nvm_device.hpp"
#include "obs/metrics.hpp"

namespace sembfs {

class ChunkCache;

/// Completion value of one scheduled read. Errors are carried here as
/// values instead of being thrown across the worker boundary.
struct IoResult {
  bool ok = false;
  int attempts = 0;            ///< tries performed (0 = rejected/expired)
  std::uint64_t requests = 0;  ///< device requests of the successful try
  std::exception_ptr error;    ///< the last failure, when !ok
  std::string message;         ///< human-readable failure summary

  /// Convenience for call sites that want the old throwing behavior:
  /// returns `requests` on success, rethrows the stored error otherwise.
  std::uint64_t value_or_throw() const {
    if (ok) return requests;
    if (error) std::rethrow_exception(error);
    throw NvmIoError(message.empty() ? "scheduled read failed" : message);
  }
};

struct IoSchedulerConfig {
  RetryPolicy retry;
  /// Requests that may exhaust their retries before the scheduler starts
  /// failing new work fast (completing it with ok=false and no device
  /// traffic). Default: unbounded. reset_error_budget() re-opens the gate
  /// (the BFS calls it per level).
  std::uint64_t error_budget = std::numeric_limits<std::uint64_t>::max();

  bool operator==(const IoSchedulerConfig&) const = default;
};

/// Point-in-time view of the scheduler counters.
struct IoSchedulerStats {
  std::uint64_t submitted = 0;     ///< requests accepted
  std::uint64_t completed = 0;     ///< requests finished (incl. failed)
  std::uint64_t peak_pending = 0;  ///< max queued+in-service at any instant
  std::uint64_t retries = 0;       ///< re-issued attempts after a failure
  std::uint64_t failures = 0;      ///< requests completed with ok=false
  std::uint64_t deadline_expired = 0;  ///< failures due to the deadline
  std::uint64_t budget_rejected = 0;   ///< failed fast: budget exhausted
};

class IoScheduler {
 public:
  /// Spawns `queue_depth` background I/O workers; each keeps at most one
  /// request in service against a device, so the scheduler sustains up to
  /// `queue_depth` concurrent device requests.
  explicit IoScheduler(std::size_t queue_depth,
                       IoSchedulerConfig config = {});

  /// Drains every pending request (all futures/callbacks complete), then
  /// joins the workers.
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  [[nodiscard]] std::size_t queue_depth() const noexcept;
  /// Adds workers until there are at least `queue_depth`; never removes
  /// any, so it is safe while other threads have requests in flight.
  void grow(std::size_t queue_depth);
  [[nodiscard]] const IoSchedulerConfig& config() const noexcept {
    return config_;
  }

  /// Posts one byte-range read of dst.size() bytes at `offset`. `dst` (and
  /// `file`/`cache`) must stay alive until the future resolves. The future
  /// yields an IoResult whose `requests` counts device requests issued by
  /// the successful attempt: 1 for a direct read, the miss count when
  /// routed through `cache` (with miss runs merged up to
  /// `max_miss_request_bytes`, 0 = strict per-chunk requests). `retry`
  /// (copied) governs this request's attempts, backoff and deadline;
  /// nullptr uses the configured policy. The future never throws; failures
  /// arrive as ok=false.
  std::future<IoResult> submit_read(
      NvmBackingFile& file, std::uint64_t offset, std::span<std::byte> dst,
      ChunkCache* cache = nullptr, std::uint64_t max_miss_request_bytes = 0,
      const RetryPolicy* retry = nullptr);

  /// Callback variant: `done(result)` runs on the I/O worker after the
  /// read finishes (successfully or not).
  void submit_read(
      NvmBackingFile& file, std::uint64_t offset, std::span<std::byte> dst,
      std::function<void(const IoResult&)> done, ChunkCache* cache = nullptr,
      std::uint64_t max_miss_request_bytes = 0,
      const RetryPolicy* retry = nullptr);

  /// Blocks until every request submitted so far has completed.
  void drain();

  /// True once `error_budget` requests have failed since the last reset;
  /// new requests then complete immediately with ok=false.
  [[nodiscard]] bool error_budget_exhausted() const noexcept;
  /// Re-opens the error gate (called at the start of each BFS level).
  void reset_error_budget() noexcept;

  [[nodiscard]] std::size_t pending() const noexcept;
  [[nodiscard]] IoSchedulerStats stats() const noexcept;

 private:
  struct Job {
    NvmBackingFile* file = nullptr;
    std::uint64_t offset = 0;
    std::span<std::byte> dst;
    ChunkCache* cache = nullptr;
    std::uint64_t max_miss_request_bytes = 0;
    RetryPolicy retry;
    std::chrono::steady_clock::time_point submitted_at;
    std::promise<IoResult> promise;
    std::function<void(const IoResult&)> callback;
  };

  Job make_job(NvmBackingFile& file, std::uint64_t offset,
               std::span<std::byte> dst, ChunkCache* cache,
               std::uint64_t max_miss_request_bytes,
               const RetryPolicy* retry) const;
  void enqueue(Job job);
  void worker_loop();
  /// One attempt: the actual device read. Throws on failure.
  static std::uint64_t execute(Job& job);
  /// The full retry/backoff/deadline/budget state machine for one job.
  IoResult run_job(Job& job);

  IoSchedulerConfig config_;

  // Observability handles (global registry; schedulers aggregate).
  obs::Histogram* obs_queue_wait_us_;
  obs::Histogram* obs_service_us_;
  obs::Counter* obs_completed_;
  obs::Counter* obs_retries_;
  obs::Counter* obs_failures_;
  obs::Counter* obs_deadline_expired_;
  obs::Counter* obs_budget_rejected_;

  std::atomic<std::uint64_t> failed_requests_{0};

  mutable std::mutex mutex_;
  std::vector<std::thread> workers_;  // grows under mutex_, never shrinks
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  std::size_t in_service_ = 0;
  bool shutdown_ = false;

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t peak_pending_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t deadline_expired_ = 0;
  std::uint64_t budget_rejected_ = 0;
};

}  // namespace sembfs
