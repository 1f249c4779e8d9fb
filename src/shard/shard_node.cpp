#include "shard/shard_node.hpp"

#include <utility>

namespace sembfs::shard {

ShardNode::ShardNode(Csr block, const DeviceProfile& profile,
                     const std::string& dir, std::size_t shard_id,
                     const ShardNodeConfig& config)
    : shard_id_(shard_id), config_(config), block_(std::move(block)) {
  SEMBFS_EXPECTS(config.devices_per_shard >= 1);
  SEMBFS_EXPECTS(!config.verify_checksums || config.cache_bytes > 0);

  devices_.reserve(config.devices_per_shard);
  for (std::size_t d = 0; d < config.devices_per_shard; ++d)
    devices_.push_back(std::make_shared<NvmDevice>(profile));

  checksums_ = std::make_unique<ChunkChecksums>(config.chunk_bytes);
  if (devices_.size() == 1) {
    external_ = std::make_unique<ExternalCsrPartition>(
        block_, devices_.front(), dir, shard_id, config.chunk_bytes,
        checksums_.get(), config.format);
  } else {
    external_ = std::make_unique<ExternalCsrPartition>(
        block_, devices_, dir, shard_id, config.chunk_bytes,
        checksums_.get(), config.format);
  }

  if (config.cache_bytes > 0) {
    cache_ = std::make_unique<ChunkCache>(config.cache_bytes,
                                          config.chunk_bytes);
    if (config.verify_checksums)
      cache_->set_checksums(checksums_.get(),
                            config.retry.max_attempts);
    external_->attach_cache(cache_.get());
  }
  external_->set_compressed_max_refetches(config.retry.max_attempts);

  if (config.io_queue_depth > 0) {
    IoSchedulerConfig scheduler_config;
    scheduler_config.retry = config.retry;
    scheduler_ = std::make_unique<IoScheduler>(config.io_queue_depth,
                                               scheduler_config);
  }
}

void ShardNode::set_fault_plan(const FaultPlan& plan) {
  for (auto& device : devices_) device->set_fault_plan(plan);
}

void ShardNode::clear_fault_plan() {
  for (auto& device : devices_) device->clear_fault_plan();
}

std::uint64_t ShardNode::device_requests() const noexcept {
  std::uint64_t total = 0;
  for (const auto& device : devices_)
    total += device->stats().request_count();
  return total;
}

ShardNode::FetchOutcome ShardNode::fetch_neighbors_batch(
    std::span<const Vertex> batch, std::vector<std::vector<Vertex>>& out) {
  FetchOutcome outcome;
  out.clear();
  if (batch.empty()) return outcome;

  const int attempts =
      config_.retry.max_attempts > 0 ? config_.retry.max_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    try {
      if (scheduler_ != nullptr) {
        PendingNeighborsBatch pending =
            external_->start_fetch_neighbors_batch(batch, *scheduler_);
        outcome.requests += pending.wait(out);
      } else {
        outcome.requests += external_->fetch_neighbors_batch(batch, out);
      }
      return outcome;
    } catch (const NvmIoError&) {
      // Injected (or checksum-detected) read failure: every retry draws
      // fresh fault-sequence indices, so transient errors clear here.
      ++outcome.failures;
    }
  }

  if (!config_.dram_fallback)
    throw NvmIoError("shard " + std::to_string(shard_id_) +
                     ": batch fetch failed after retries "
                     "(DRAM fallback disabled)");

  // Degraded level: serve the batch from the DRAM copy. Correctness is
  // preserved; only this shard's stats show the failure.
  outcome.fell_back = true;
  out.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto neighbors = block_.neighbors(batch[i]);
    out[i].assign(neighbors.begin(), neighbors.end());
  }
  return outcome;
}

}  // namespace sembfs::shard
