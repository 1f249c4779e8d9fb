#include "shard/shard_node.hpp"

#include <algorithm>
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

  if (devices_.size() == 1) {
    external_ = std::make_unique<ExternalCsrPartition>(
        block_, devices_.front(), dir, shard_id, config.chunk_bytes,
        config.format);
  } else {
    external_ = std::make_unique<ExternalCsrPartition>(
        block_, devices_, dir, shard_id, config.chunk_bytes, config.format);
  }

  if (config.cache_bytes > 0) {
    cache_ = std::make_unique<ChunkCache>(config.cache_bytes,
                                          config.chunk_bytes);
    cache_->set_verify_checksums(config.verify_checksums,
                                 config.retry.max_attempts);
    external_->attach_cache(cache_.get());
  }
  external_->set_compressed_max_refetches(config.retry.max_attempts);
  scheduler_ = std::make_unique<IoScheduler>(devices_.size());

  degree_zero_.resize(static_cast<std::size_t>(block_.global_vertex_count()));
  const VertexRange sources = block_.source_range();
  for (Vertex v = sources.begin; v < sources.end; ++v)
    if (block_.degree(v) == 0) degree_zero_.set(static_cast<std::size_t>(v));
}

std::int64_t ShardNode::degree_sum(const Bitmap& visited) const {
  SEMBFS_EXPECTS(visited.size() == degree_zero_.size());
  const std::vector<std::int64_t>& index = block_.index();
  const VertexRange sources = block_.source_range();
  const auto lo = static_cast<std::size_t>(sources.begin);
  const auto hi = static_cast<std::size_t>(sources.end);
  std::int64_t sum = 0;
  for (std::size_t w = lo / 64; w < (hi + 63) / 64; ++w) {
    const std::size_t first = std::max(lo, w * 64);
    const std::size_t last = std::min(hi, w * 64 + 64);
    const std::uint64_t with_edges = bitmap_tail_mask(last - w * 64) &
                                     ~bitmap_tail_mask(first - w * 64) &
                                     ~degree_zero_.word(w);
    const std::uint64_t seen = visited.word(w) & with_edges;
    if (seen == with_edges) {
      // The word's other sources add 0, so its degrees are one span.
      sum += index[last - lo] - index[first - lo];
      continue;
    }
    for_each_set_in_word(seen, w * 64, [&](std::size_t v) {
      sum += index[v - lo + 1] - index[v - lo];
    });
  }
  return sum;
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
