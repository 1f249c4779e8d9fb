#include "nvm/nvm_device.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "nvm/crc32.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace sembfs {

NvmDevice::NvmDevice(DeviceProfile profile)
    : profile_(std::move(profile)),
      stats_(profile_.sector_bytes),
      obs_queue_wait_us_(&obs::metrics().histogram("nvm.queue_wait_us")),
      obs_service_us_(&obs::metrics().histogram("nvm.service_us")),
      obs_requests_(&obs::metrics().counter("nvm.requests")),
      obs_bytes_(&obs::metrics().counter("nvm.bytes")),
      obs_read_errors_(&obs::metrics().counter("nvm.read_errors")),
      obs_short_reads_(&obs::metrics().counter("nvm.short_reads")),
      obs_corruptions_(&obs::metrics().counter("nvm.corruptions")),
      obs_latency_spikes_(&obs::metrics().counter("nvm.latency_spikes")),
      obs_queue_depth_(&obs::metrics().gauge("nvm.queue_depth")) {}

namespace {
std::uint64_t to_us(double seconds) noexcept {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}
}  // namespace

void NvmDevice::record_request_metrics(double wait_seconds,
                                       double service_seconds,
                                       std::uint64_t bytes) noexcept {
  obs_queue_wait_us_->record(to_us(wait_seconds));
  obs_service_us_->record(to_us(service_seconds));
  obs_requests_->add(1);
  obs_bytes_->add(bytes);
}

void NvmDevice::set_fault_plan(const FaultPlan& plan) {
  {
    const std::lock_guard<std::mutex> lock{fault_mutex_};
    plan_ = plan;
  }
  fault_sequence_.store(0, std::memory_order_relaxed);
  // Release: a submitter that observes the armed flag sees the new plan.
  faults_armed_.store(plan.enabled(), std::memory_order_release);
}

void NvmDevice::clear_fault_plan() {
  faults_armed_.store(false, std::memory_order_release);
  const std::lock_guard<std::mutex> lock{fault_mutex_};
  plan_ = FaultPlan{};
}

FaultPlan NvmDevice::fault_plan() const {
  const std::lock_guard<std::mutex> lock{fault_mutex_};
  return plan_;
}

FaultDecision NvmDevice::next_read_fault() {
  FaultPlan plan;
  {
    const std::lock_guard<std::mutex> lock{fault_mutex_};
    plan = plan_;
  }
  // The sequence index — not a decrementing countdown — is what makes the
  // one-shot fail_after_requests race-free: exactly one request observes
  // index n-1, no matter how many threads submit concurrently.
  const std::uint64_t index =
      fault_sequence_.fetch_add(1, std::memory_order_relaxed);
  FaultDecision fault = plan.decide(index);
  const bool tracked = obs::enabled();
  if (fault.read_error) {
    stats_.on_read_error();
    if (tracked) obs_read_errors_->add(1);
    throw NvmIoError("injected read error (FaultPlan) at device read #" +
                     std::to_string(index));
  }
  if (fault.short_read) {
    stats_.on_short_read();
    if (tracked) obs_short_reads_->add(1);
  }
  if (fault.corrupt) {
    stats_.on_corruption();
    if (tracked) obs_corruptions_->add(1);
  }
  if (fault.latency_spike) {
    stats_.on_latency_spike();
    if (tracked) obs_latency_spikes_->add(1);
  }
  return fault;
}

void NvmDevice::apply_buffer_faults(const FaultDecision& fault,
                                    std::span<std::byte> dst) {
  if (dst.empty()) return;
  if (fault.short_read) {
    // Model a short read: the tail of the transfer never arrives. The cut
    // point is deterministic per request index; at least one byte is lost.
    const auto cut = static_cast<std::ptrdiff_t>(fault.entropy % dst.size());
    std::fill(dst.begin() + cut, dst.end(), std::byte{0});
  }
  if (fault.corrupt) {
    const auto pos =
        static_cast<std::size_t>((fault.entropy >> 17) % dst.size());
    dst[pos] ^= std::byte{0x40};
  }
}

void NvmDevice::acquire_channel() {
  std::unique_lock<std::mutex> lock{channel_mutex_};
  channel_cv_.wait(lock,
                   [this] { return busy_channels_ < profile_.channels; });
  ++busy_channels_;
}

void NvmDevice::release_channel() {
  {
    const std::lock_guard<std::mutex> lock{channel_mutex_};
    SEMBFS_ASSERT(busy_channels_ > 0);
    --busy_channels_;
  }
  channel_cv_.notify_one();
}

double NvmDevice::serve(std::uint64_t bytes, double extra_seconds,
                        const std::function<void()>& io) {
  Timer t;
  io();
  const double target = profile_.service_seconds(bytes) + extra_seconds;
  const double remaining = target - t.seconds();
  if (remaining > 0.0) {
    // sleep_for granularity (~50 us on Linux) is coarse for sub-100 us
    // service times; spin below that threshold, sleep above it.
    if (remaining < 100e-6) {
      const double deadline = t.seconds() + remaining;
      while (t.seconds() < deadline) {
        // busy spin
      }
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
    }
  }
  return t.seconds();
}

void NvmBackingFile::record_chunk_crcs(std::span<const std::byte> contents,
                                       std::uint32_t chunk_bytes) {
  SEMBFS_EXPECTS(chunk_bytes > 0);
  crc_chunk_bytes_ = chunk_bytes;
  chunk_crcs_.clear();
  chunk_crcs_.reserve((contents.size() + chunk_bytes - 1) / chunk_bytes);
  for (std::size_t done = 0; done < contents.size(); done += chunk_bytes)
    chunk_crcs_.push_back(crc32(contents.subspan(
        done, std::min<std::size_t>(chunk_bytes, contents.size() - done))));
}

std::optional<std::uint32_t> NvmBackingFile::chunk_crc(
    std::uint64_t chunk, std::uint32_t chunk_bytes) const {
  if (chunk_crcs_.empty()) return std::nullopt;
  SEMBFS_EXPECTS(chunk_bytes == crc_chunk_bytes_);
  if (chunk >= chunk_crcs_.size()) return std::nullopt;
  return chunk_crcs_[static_cast<std::size_t>(chunk)];
}

NvmFile::NvmFile(std::shared_ptr<NvmDevice> device, const std::string& path)
    : device_(std::move(device)), file_(StorageFile::create(path)) {
  SEMBFS_EXPECTS(device_ != nullptr);
}

NvmFile::NvmFile(std::shared_ptr<NvmDevice> device, StorageFile file)
    : device_(std::move(device)), file_(std::move(file)) {
  SEMBFS_EXPECTS(device_ != nullptr);
  append_offset_ = file_.size();
}

void NvmFile::read(std::uint64_t offset, std::span<std::byte> buffer) {
  device_->submit_read(buffer,
                       [&] { file_.pread_exact(offset, buffer); });
}

void NvmFile::write(std::uint64_t offset,
                    std::span<const std::byte> buffer) {
  device_->submit(buffer.size(),
                  [&] { file_.pwrite_exact(offset, buffer); });
}

std::uint64_t NvmFile::append(std::span<const std::byte> buffer) {
  std::uint64_t offset = 0;
  {
    const std::lock_guard<std::mutex> lock{append_mutex_};
    offset = append_offset_;
    append_offset_ += buffer.size();
  }
  write(offset, buffer);
  return offset;
}

}  // namespace sembfs
