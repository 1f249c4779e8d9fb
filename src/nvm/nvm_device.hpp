// Simulated NVM device and the files stored on it.
//
// NvmDevice models one *physical* device (FusionIO card / SATA SSD): it owns
// the service-model state — channel slots, queue accounting, iostat-style
// counters. NvmFile is one file living on such a device (the paper stores
// 2 x NUMA-node-count CSR files plus the edge list on a device); every file
// read/write is one request against the shared device queue, which is what
// makes the Figure 12/13 per-device iostat metrics meaningful.
//
// Read path per request:
//   0. fault decision — when a FaultPlan is armed, the read consumes one
//      fault-sequence index; an injected read error throws NvmIoError here,
//      BEFORE the request enters the queue accounting
//   1. arrive  — request joins the device queue (IoStats integral grows)
//   2. acquire — waits for one of profile.channels service slots
//   3. service — real pread(2) from the backing file, then a simulated
//                delay for the remainder of the modeled service time
//                (plus the fault plan's latency spike, when drawn)
//   4. depart  — slot released, counters updated; injected buffer faults
//                (bit corruption / short read) are applied to the
//                destination during service
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nvm/device_profile.hpp"
#include "nvm/fault_plan.hpp"
#include "nvm/io_stats.hpp"
#include "nvm/storage_file.hpp"
#include "obs/metrics.hpp"

namespace sembfs {

class NvmDevice {
 public:
  explicit NvmDevice(DeviceProfile profile);

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  [[nodiscard]] const DeviceProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] IoStats& stats() noexcept { return stats_; }
  [[nodiscard]] const IoStats& stats() const noexcept { return stats_; }

  /// Arms `plan` and resets the read fault sequence to index 0: the next
  /// READ request consumes index 0, the one after index 1, and so on.
  /// Writes never consume fault indices. Thread-safe against concurrent
  /// submitters.
  void set_fault_plan(const FaultPlan& plan);
  /// Disarms fault injection.
  void clear_fault_plan();
  [[nodiscard]] bool fault_plan_active() const noexcept {
    return faults_armed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] FaultPlan fault_plan() const;
  /// Read requests decided since the plan was armed.
  [[nodiscard]] std::uint64_t fault_sequence_index() const noexcept {
    return fault_sequence_.load(std::memory_order_relaxed);
  }

  /// One modeled request of `bytes` around the real I/O in `io` (write /
  /// opaque path: no fault injection). Exposed for NvmFile; not intended
  /// for direct use.
  template <typename Io>
  void submit(std::uint64_t bytes, Io&& io) {
    run_request(bytes, 0.0, std::forward<Io>(io));
  }

  /// One modeled READ request delivering into `dst`. Consumes one fault
  /// sequence index when a plan is armed: may throw NvmIoError (read
  /// error), extend the service time (latency spike), or mutate `dst`
  /// after the real I/O (bit corruption / short read).
  template <typename Io>
  void submit_read(std::span<std::byte> dst, Io&& io) {
    if (!faults_armed_.load(std::memory_order_acquire)) {
      run_request(dst.size(), 0.0, std::forward<Io>(io));
      return;
    }
    const FaultDecision fault = next_read_fault();  // throws on read error
    if (!fault.any()) {
      run_request(dst.size(), 0.0, std::forward<Io>(io));
      return;
    }
    run_request(dst.size(), fault.latency_spike_us * 1e-6, [&] {
      io();
      apply_buffer_faults(fault, dst);
    });
  }

 private:
  template <typename Io>
  void run_request(std::uint64_t bytes, double extra_service_seconds,
                   Io&& io) {
    const auto arrival = stats_.on_arrival();
    // Publish the instantaneous queue depth (waiting + in service) — the
    // serving cost model's congestion signal (serve/cost_model.hpp).
    if (obs::enabled())
      obs_queue_depth_->set(static_cast<std::int64_t>(stats_.in_flight()));
    if (profile_.is_instant() && extra_service_seconds <= 0.0) {
      try {
        io();
      } catch (...) {
        // The failed request still occupied the queue; complete it with
        // zero payload so in-flight accounting cannot leak.
        stats_.on_completion(arrival, 0, 0.0);
        throw;
      }
      stats_.on_completion(arrival, bytes, 0.0);
      // Instant devices model zero queueing and zero service time; record
      // the model's view rather than paying extra clock reads.
      if (obs::enabled()) record_request_metrics(0.0, 0.0, bytes);
      return;
    }
    acquire_channel();
    const bool tracked = obs::enabled();
    double wait_seconds = 0.0;
    if (tracked)
      wait_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - arrival)
                         .count();
    double service = 0.0;
    try {
      service = serve(bytes, extra_service_seconds, io);
    } catch (...) {
      release_channel();
      stats_.on_completion(arrival, 0, 0.0);
      throw;
    }
    release_channel();
    stats_.on_completion(arrival, bytes, service);
    if (tracked) {
      record_request_metrics(wait_seconds, service, bytes);
      obs_queue_depth_->set(static_cast<std::int64_t>(stats_.in_flight()));
    }
  }

  void acquire_channel();
  void release_channel();
  /// Runs `io`, pads to the modeled service time plus `extra_seconds`,
  /// returns seconds spent.
  double serve(std::uint64_t bytes, double extra_seconds,
               const std::function<void()>& io);
  /// Consumes the next fault-sequence index and returns its decision;
  /// counts the drawn faults in IoStats and throws NvmIoError on an
  /// injected read error.
  FaultDecision next_read_fault();
  /// Applies corruption / short-read mutations to the delivered buffer.
  static void apply_buffer_faults(const FaultDecision& fault,
                                  std::span<std::byte> dst);
  /// Feeds one completed request into the global metrics registry
  /// (queue-wait / service-time histograms and request/byte counters).
  /// Only called behind an obs::enabled() check.
  void record_request_metrics(double wait_seconds, double service_seconds,
                              std::uint64_t bytes) noexcept;

  DeviceProfile profile_;
  IoStats stats_;

  // Observability handles, resolved once at construction; shared by every
  // device (metrics aggregate across devices, like iostat's totals line).
  obs::Histogram* obs_queue_wait_us_;
  obs::Histogram* obs_service_us_;
  obs::Counter* obs_requests_;
  obs::Counter* obs_bytes_;
  obs::Counter* obs_read_errors_;
  obs::Counter* obs_short_reads_;
  obs::Counter* obs_corruptions_;
  obs::Counter* obs_latency_spikes_;
  obs::Gauge* obs_queue_depth_;

  std::atomic<bool> faults_armed_{false};
  std::atomic<std::uint64_t> fault_sequence_{0};
  mutable std::mutex fault_mutex_;  // guards plan_ (armed flag is atomic)
  FaultPlan plan_;

  std::mutex channel_mutex_;
  std::condition_variable channel_cv_;
  unsigned busy_channels_ = 0;
};

/// Abstract byte store the typed array / chunk-reader layers read from —
/// either one file on one device (NvmFile) or a stripe set across several
/// devices (StripedNvmFile).
class NvmBackingFile {
 public:
  virtual ~NvmBackingFile() = default;

  /// Reads buffer.size() bytes at `offset`. Each call is at least one
  /// device request.
  virtual void read(std::uint64_t offset, std::span<std::byte> buffer) = 0;
  /// Writes buffer.size() bytes at `offset`.
  virtual void write(std::uint64_t offset,
                     std::span<const std::byte> buffer) = 0;
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  /// Records one retry of a failed read against this store's device(s) —
  /// called by recovery layers (IoScheduler) so IoStats sees retry work.
  virtual void record_retry() noexcept {}

  /// Keeps the CRC32 of every `chunk_bytes` chunk of `contents`, this
  /// store's bytes from offset 0 as offloaded (the last chunk may be
  /// short). Recorded once, from the DRAM source, before any read: these
  /// are the ground truth a ChunkCache verifies the chunks it fills
  /// against.
  void record_chunk_crcs(std::span<const std::byte> contents,
                         std::uint32_t chunk_bytes);
  /// The recorded CRC32 of chunk `chunk` (of `chunk_bytes` bytes), or
  /// nullopt when the store recorded none for it (a CompressedBlockFile's
  /// blobs carry their own). A recorded table must have that chunk size.
  [[nodiscard]] std::optional<std::uint32_t> chunk_crc(
      std::uint64_t chunk, std::uint32_t chunk_bytes) const;

 private:
  std::uint32_t crc_chunk_bytes_ = 0;
  std::vector<std::uint32_t> chunk_crcs_;
};

/// A file stored on a simulated NVM device. All I/O is routed through the
/// device's queue/service model.
class NvmFile final : public NvmBackingFile {
 public:
  /// Creates/truncates the backing file on `device`.
  NvmFile(std::shared_ptr<NvmDevice> device, const std::string& path);
  /// Adopts an already-open backing file.
  NvmFile(std::shared_ptr<NvmDevice> device, StorageFile file);

  // Non-copyable and non-movable (owns a mutex); hold via unique_ptr when a
  // container is needed.
  NvmFile(const NvmFile&) = delete;
  NvmFile& operator=(const NvmFile&) = delete;

  [[nodiscard]] NvmDevice& device() noexcept { return *device_; }
  [[nodiscard]] const std::string& path() const noexcept {
    return file_.path();
  }
  [[nodiscard]] std::uint64_t size() const override { return file_.size(); }

  /// Reads buffer.size() bytes at `offset` as ONE device request.
  void read(std::uint64_t offset, std::span<std::byte> buffer) override;

  /// Writes buffer.size() bytes at `offset` as one device request.
  void write(std::uint64_t offset,
             std::span<const std::byte> buffer) override;

  void record_retry() noexcept override { device_->stats().on_retry(); }

  /// Appends at the tracked logical end; returns the write offset.
  std::uint64_t append(std::span<const std::byte> buffer);

  void resize(std::uint64_t bytes) { file_.resize(bytes); }
  void sync() { file_.sync(); }

 private:
  std::shared_ptr<NvmDevice> device_;
  StorageFile file_;
  std::mutex append_mutex_;
  std::uint64_t append_offset_ = 0;
};

}  // namespace sembfs
