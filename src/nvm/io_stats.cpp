#include "nvm/io_stats.hpp"

#include <algorithm>

namespace sembfs {

using clock = std::chrono::steady_clock;

IoStats::IoStats(std::uint32_t sector_bytes) : sector_bytes_(sector_bytes) {
  reset();
}

void IoStats::reset() {
  read_errors_.store(0, std::memory_order_relaxed);
  short_reads_.store(0, std::memory_order_relaxed);
  corruptions_.store(0, std::memory_order_relaxed);
  latency_spikes_.store(0, std::memory_order_relaxed);
  retries_.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock{mutex_};
  window_start_ = last_event_ = clock::now();
  in_flight_ = 0;
  peak_in_flight_ = 0;
  queue_integral_ = 0.0;
  requests_ = 0;
  bytes_ = 0;
  sectors_ = 0;
  busy_seconds_ = 0.0;
  wait_seconds_ = 0.0;
}

void IoStats::advance_integral_locked(clock::time_point now) {
  const double dt = std::chrono::duration<double>(now - last_event_).count();
  if (dt > 0.0) {
    queue_integral_ += static_cast<double>(in_flight_) * dt;
    last_event_ = now;
  }
}

clock::time_point IoStats::on_arrival() {
  const auto now = clock::now();
  const std::lock_guard<std::mutex> lock{mutex_};
  advance_integral_locked(now);
  ++in_flight_;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  return now;
}

void IoStats::on_completion(clock::time_point arrival, std::uint64_t bytes,
                            double service_seconds) {
  const auto now = clock::now();
  const std::lock_guard<std::mutex> lock{mutex_};
  advance_integral_locked(now);
  if (in_flight_ > 0) --in_flight_;
  ++requests_;
  bytes_ += bytes;
  sectors_ += (bytes + sector_bytes_ - 1) / sector_bytes_;
  busy_seconds_ += service_seconds;
  wait_seconds_ += std::chrono::duration<double>(now - arrival).count();
}

void IoStats::on_read_error() noexcept {
  read_errors_.fetch_add(1, std::memory_order_relaxed);
}
void IoStats::on_short_read() noexcept {
  short_reads_.fetch_add(1, std::memory_order_relaxed);
}
void IoStats::on_corruption() noexcept {
  corruptions_.fetch_add(1, std::memory_order_relaxed);
}
void IoStats::on_latency_spike() noexcept {
  latency_spikes_.fetch_add(1, std::memory_order_relaxed);
}
void IoStats::on_retry() noexcept {
  retries_.fetch_add(1, std::memory_order_relaxed);
}
std::uint64_t IoStats::retry_count() const noexcept {
  return retries_.load(std::memory_order_relaxed);
}

IoStatsSnapshot IoStats::snapshot() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  IoStatsSnapshot s;
  const auto now = clock::now();
  const double dt = std::chrono::duration<double>(now - last_event_).count();
  const double integral =
      queue_integral_ + static_cast<double>(in_flight_) * (dt > 0.0 ? dt : 0.0);
  s.requests = requests_;
  s.bytes = bytes_;
  s.sectors = sectors_;
  s.read_errors = read_errors_.load(std::memory_order_relaxed);
  s.short_reads = short_reads_.load(std::memory_order_relaxed);
  s.corruptions = corruptions_.load(std::memory_order_relaxed);
  s.latency_spikes = latency_spikes_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.peak_in_flight = peak_in_flight_;
  s.queue_integral = integral;
  s.elapsed_seconds =
      std::chrono::duration<double>(now - window_start_).count();
  s.busy_seconds = busy_seconds_;
  s.wait_seconds = wait_seconds_;
  if (s.elapsed_seconds > 0.0)
    s.avg_queue_length = integral / s.elapsed_seconds;
  if (requests_ > 0) {
    s.avg_request_sectors =
        static_cast<double>(sectors_) / static_cast<double>(requests_);
    s.await_ms = wait_seconds_ / static_cast<double>(requests_) * 1e3;
  }
  if (s.elapsed_seconds > 0.0)
    s.iops = static_cast<double>(requests_) / s.elapsed_seconds;
  return s;
}

std::uint64_t IoStats::request_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return requests_;
}

std::uint64_t IoStats::byte_count() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return bytes_;
}

std::uint64_t IoStats::in_flight() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return in_flight_;
}

}  // namespace sembfs
