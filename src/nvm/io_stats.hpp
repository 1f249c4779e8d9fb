// iostat-equivalent statistics for a simulated device.
//
// Figures 12 and 13 of the paper plot iostat's avgqu-sz (average number of
// requests in the device queue, counting waiting + in-service) and
// avgrq-sz (average request size in 512-byte sectors) over the BFS run.
// The device calls on_arrival / on_completion around every request; the
// queue-length *time integral* gives exactly iostat's avgqu-sz without any
// sampling, and per-request sector counts give avgrq-sz.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace sembfs {

/// Immutable view of the counters at one point in time.
struct IoStatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sectors = 0;
  // Failure-domain counters (FaultPlan injections and recovery work).
  std::uint64_t read_errors = 0;     ///< injected read errors raised
  std::uint64_t short_reads = 0;     ///< injected tail-zeroed reads
  std::uint64_t corruptions = 0;     ///< injected flipped bytes
  std::uint64_t latency_spikes = 0;  ///< injected service-time spikes
  std::uint64_t retries = 0;         ///< re-issues recorded by retry layers
  /// Most requests queued or in service at once since the last reset —
  /// how many reads the callers actually kept in flight.
  std::uint64_t peak_in_flight = 0;
  double elapsed_seconds = 0.0;     ///< observation window length
  double busy_seconds = 0.0;        ///< summed service time
  double wait_seconds = 0.0;        ///< summed (queue + service) time
  double avg_queue_length = 0.0;    ///< iostat avgqu-sz
  double avg_request_sectors = 0.0; ///< iostat avgrq-sz
  double await_ms = 0.0;            ///< iostat await
  double iops = 0.0;
  /// Raw time integral of queue occupancy (queue-length-seconds); the
  /// difference of two snapshots' integrals divided by the elapsed delta
  /// is the windowed avgqu-sz — how iostat itself reports intervals.
  double queue_integral = 0.0;

  [[nodiscard]] double throughput_bps() const noexcept {
    return elapsed_seconds > 0.0
               ? static_cast<double>(bytes) / elapsed_seconds
               : 0.0;
  }

  /// Device bytes moved per edge of useful traversal work — the figure the
  /// compressed chunk format exists to shrink (8 B/neighbor raw vs the
  /// varint blobs). `edges` is whatever traversal total the caller tracks
  /// (e.g. summed BfsResult::teps_edge_count over the window).
  [[nodiscard]] double bytes_per_edge(std::uint64_t edges) const noexcept {
    return edges > 0 ? static_cast<double>(bytes) / static_cast<double>(edges)
                     : 0.0;
  }
};

class IoStats {
 public:
  explicit IoStats(std::uint32_t sector_bytes = 512);

  /// Restarts the observation window and zeroes all counters.
  void reset();

  /// Marks one request entering the device queue. Returns an arrival
  /// timestamp to pass to on_completion.
  std::chrono::steady_clock::time_point on_arrival();

  /// Marks the matching request leaving the device.
  /// `service_seconds` is the time the request held a device channel.
  void on_completion(std::chrono::steady_clock::time_point arrival,
                     std::uint64_t bytes, double service_seconds);

  // Failure-domain events. Injected faults are counted at decision time
  // (an erroring request never reaches on_arrival, see
  // FaultInjectionTest.StatsNotCorruptedByFailure); retries are recorded
  // by whichever recovery layer re-issues a request against this device.
  void on_read_error() noexcept;
  void on_short_read() noexcept;
  void on_corruption() noexcept;
  void on_latency_spike() noexcept;
  void on_retry() noexcept;
  [[nodiscard]] std::uint64_t retry_count() const noexcept;

  [[nodiscard]] IoStatsSnapshot snapshot() const;

  [[nodiscard]] std::uint64_t request_count() const;
  [[nodiscard]] std::uint64_t byte_count() const;
  /// Requests currently queued or in service (instantaneous queue depth —
  /// the congestion signal the serving cost model reads).
  [[nodiscard]] std::uint64_t in_flight() const;

 private:
  void advance_integral_locked(std::chrono::steady_clock::time_point now);

  // Fault/retry counters are atomics outside mutex_: they are touched on
  // the fault fast path (possibly before any queue accounting) and read
  // by monitoring threads.
  std::atomic<std::uint64_t> read_errors_{0};
  std::atomic<std::uint64_t> short_reads_{0};
  std::atomic<std::uint64_t> corruptions_{0};
  std::atomic<std::uint64_t> latency_spikes_{0};
  std::atomic<std::uint64_t> retries_{0};

  mutable std::mutex mutex_;
  std::uint32_t sector_bytes_;
  std::chrono::steady_clock::time_point window_start_;
  std::chrono::steady_clock::time_point last_event_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t peak_in_flight_ = 0;
  double queue_integral_ = 0.0;  // sum of queue_len * dt
  std::uint64_t requests_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t sectors_ = 0;
  double busy_seconds_ = 0.0;
  double wait_seconds_ = 0.0;
};

}  // namespace sembfs
