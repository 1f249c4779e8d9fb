// One emulated node of the sharded BFS: its edge block and its private
// storage stack.
//
// Each shard keeps the paper's two views of its 2D edge block:
//   - the NVM copy, on the same I/O stack the single-node path uses,
//     instantiated privately so nothing is shared across emulated nodes:
//       - one or more NvmDevices with the scenario's profile (several
//         devices are striped through StripedNvmFile via
//         ExternalCsrPartition's striped constructor),
//       - an ExternalCsrPartition of the block (raw or varint chunk
//         format), whose files keep their own chunk CRCs,
//       - optionally a private ChunkCache (with CRC verification against
//         those files' CRCs),
//       - a private IoScheduler with one worker per device, which the
//         merged batch reads are posted to (one request in service per
//         device, the concurrency a synchronous read would have),
//       - a per-shard FaultPlan armed on every device of this shard and
//         nothing else — fault injection is the per-node failure domain.
//     Only top-down expansion reads it, through read_batches, the read
//     loop the single-node top-down step runs over the offloaded forward
//     graph.
//   - the DRAM copy, always resident, as the single-node backward graph
//     is: the bottom-up sweep probes it directly (local_neighbors), and
//     has_local_edges()/local_degree() read its index, so top-down
//     expansion skips sources with no edges in this block without a
//     device round-trip (2D blocks are sparse — most vertices have no
//     edges in any given block).
// Within the semi-external model a shard's DRAM therefore holds O(n)
// vertex state plus its block, and its NVM holds the block.
//
// Fault containment: every read request is retried under
// ShardNodeConfig::retry (each retry consumes fresh fault-sequence
// indices, so transient injected errors clear). When a read still fails,
// ShardedBfs always redoes that level's expansion from the DRAM copy, as
// a single-node BFS session redoes such a level from its backward graph.
// The BFS result stays reference-exact, the shard sends exactly a clean
// run's claims, and no other shard observes anything — degraded, not
// poisoned.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/external_csr.hpp"
#include "graph/graph_storage.hpp"
#include "nvm/chunk_cache.hpp"
#include "nvm/chunk_format.hpp"
#include "nvm/device_profile.hpp"
#include "nvm/fault_plan.hpp"
#include "nvm/io_scheduler.hpp"
#include "nvm/nvm_device.hpp"

namespace sembfs::shard {

struct ShardNodeConfig {
  std::uint32_t chunk_bytes = 4096;
  ChunkFormat format = ChunkFormat::kRaw;
  /// Physical devices per shard; > 1 stripes the block files round-robin.
  std::size_t devices_per_shard = 1;
  /// Private chunk-cache capacity; 0 disables the cache.
  std::size_t cache_bytes = 0;
  /// Verify cached chunks against the shard's CRC registry (needs cache).
  bool verify_checksums = false;
  /// Attempts, backoff and deadline of every top-down read request.
  RetryPolicy retry;
};

class ShardNode {
 public:
  /// Offloads `block` (one 2D edge block) to this shard's private devices
  /// under `dir` and keeps it as the DRAM copy. The block's
  /// source/destination ranges are preserved.
  ShardNode(Csr block, const DeviceProfile& profile,
            const std::string& dir, std::size_t shard_id,
            const ShardNodeConfig& config);

  [[nodiscard]] std::size_t shard_id() const noexcept { return shard_id_; }
  [[nodiscard]] VertexRange source_range() const noexcept {
    return external_->source_range();
  }
  [[nodiscard]] std::int64_t entry_count() const noexcept {
    return external_->entry_count();
  }
  /// Device bytes of this shard's block (encoded size under kVarint).
  [[nodiscard]] std::uint64_t nvm_byte_size() const noexcept {
    return external_->nvm_byte_size();
  }
  [[nodiscard]] std::uint64_t raw_byte_size() const noexcept {
    return external_->raw_byte_size();
  }
  /// DRAM bytes of this shard's resident block copy.
  [[nodiscard]] std::uint64_t dram_byte_size() const noexcept {
    return block_.byte_size();
  }

  /// Degree of source v within this block (DRAM, no device traffic).
  [[nodiscard]] std::int64_t local_degree(Vertex v) const noexcept {
    SEMBFS_ASSERT(block_.covers_source(v));
    return block_.degree(v);
  }
  /// True iff source v has at least one edge in this block.
  [[nodiscard]] bool has_local_edges(Vertex v) const noexcept {
    return local_degree(v) > 0;
  }
  /// Block adjacency of source v from the DRAM copy (no device traffic).
  [[nodiscard]] std::span<const Vertex> local_neighbors(
      Vertex v) const noexcept {
    SEMBFS_ASSERT(block_.covers_source(v));
    return block_.neighbors(v);
  }

  /// Arms `plan` on every device of this shard (and resets their fault
  /// sequences). The caller derives per-shard seeds so shard failure
  /// domains draw independent fault sequences.
  void set_fault_plan(const FaultPlan& plan);
  void clear_fault_plan();

  /// Total requests ever issued across this shard's devices (offload
  /// writes included).
  [[nodiscard]] std::uint64_t device_requests() const noexcept;

  /// The NVM copy of the block, for read_batches with reads().
  [[nodiscard]] ExternalCsrPartition& nvm_block() noexcept {
    return *external_;
  }
  /// How top-down expansion reads the NVM copy: through this shard's
  /// scheduler, every request under the configured retry policy.
  [[nodiscard]] ForwardReads reads() noexcept {
    return {scheduler_.get(), config_.retry};
  }

 private:
  std::size_t shard_id_;
  ShardNodeConfig config_;
  std::vector<std::shared_ptr<NvmDevice>> devices_;
  std::unique_ptr<ExternalCsrPartition> external_;
  std::unique_ptr<ChunkCache> cache_;
  // Declared after external_ and cache_, so it is joined before the files
  // and cache its requests reference go away.
  std::unique_ptr<IoScheduler> scheduler_;
  Csr block_;  ///< the DRAM copy
};

}  // namespace sembfs::shard
