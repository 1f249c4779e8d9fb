// Asynchronous I/O scheduler for the simulated NVM devices.
//
// Synchronous read(2)-style requests issued inline on the BFS compute
// workers keep at most one request per worker in the device queue — far
// from the avgqu-sz ~36-56 the paper measures (Figure 12), and with no
// overlap between edge processing and I/O. This scheduler is the
// FlashGraph/libaio-style alternative every semi-external top-down level
// reads through: a pool of `queue_depth` background I/O workers that accept
// byte-range read requests and complete them via futures.
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
// throwing across the worker-thread boundary. Each request carries its
// RetryPolicy, so traversals with different policies share one scheduler:
// a failed attempt is retried with exponential backoff, and the policy's
// optional deadline bounds how long the request may be outstanding. The
// scheduler keeps no policy and no error budget of its own; how many
// failed reads a level tolerates is the traversal's call
// (PushTeam::contain_failure and BfsConfig::io_error_budget).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
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
  int attempts = 0;            ///< tries performed (0 = expired unread)
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

/// Point-in-time view of the scheduler counters.
struct IoSchedulerStats {
  std::uint64_t submitted = 0;     ///< requests accepted
  std::uint64_t completed = 0;     ///< requests finished (incl. failed)
  std::uint64_t peak_pending = 0;  ///< max queued+in-service at any instant
  std::uint64_t retries = 0;       ///< re-issued attempts after a failure
  std::uint64_t failures = 0;      ///< requests completed with ok=false
  std::uint64_t deadline_expired = 0;  ///< failures due to the deadline
};

class IoScheduler {
 public:
  /// Spawns `queue_depth` background I/O workers; each keeps at most one
  /// request in service against a device, so the scheduler sustains up to
  /// `queue_depth` concurrent device requests.
  explicit IoScheduler(std::size_t queue_depth);

  /// Drains every pending request (all futures complete), then joins the
  /// workers.
  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  [[nodiscard]] std::size_t queue_depth() const noexcept;
  /// Adds workers until there are at least `queue_depth`; never removes
  /// any, so it is safe while other threads have requests in flight.
  void grow(std::size_t queue_depth);

  /// Posts one byte-range read of dst.size() bytes at `offset`. `dst` (and
  /// `file`/`cache`) must stay alive until the future resolves. The future
  /// yields an IoResult whose `requests` counts device requests issued by
  /// the successful attempt: 1 for a direct read, the miss count when
  /// routed through `cache` (with miss runs merged up to
  /// `max_miss_request_bytes`, 0 = strict per-chunk requests). `retry`
  /// (copied) governs this request's attempts, backoff and deadline. The
  /// future never throws; failures arrive as ok=false.
  std::future<IoResult> submit_read(NvmBackingFile& file,
                                    std::uint64_t offset,
                                    std::span<std::byte> dst,
                                    const RetryPolicy& retry,
                                    ChunkCache* cache = nullptr,
                                    std::uint64_t max_miss_request_bytes = 0);

  /// Blocks until every request submitted so far has completed.
  void drain();

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
  };

  void worker_loop();
  /// One attempt: the actual device read. Throws on failure.
  static std::uint64_t execute(Job& job);
  /// The retry/backoff/deadline state machine for one job.
  IoResult run_job(Job& job);
  /// Counts one request that completes with ok=false.
  void count_failure(bool deadline_expired);

  // Observability handles (global registry; schedulers aggregate).
  obs::Histogram* obs_queue_wait_us_;
  obs::Histogram* obs_service_us_;
  obs::Counter* obs_completed_;
  obs::Counter* obs_retries_;
  obs::Counter* obs_failures_;
  obs::Counter* obs_deadline_expired_;

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
};

}  // namespace sembfs
