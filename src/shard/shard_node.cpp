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
  scheduler_ = std::make_unique<IoScheduler>(devices_.size());
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

}  // namespace sembfs::shard
