// Emulated multi-node direction-optimizing BFS over 2D-partitioned,
// semi-external edge blocks (Buluç & Madduri's 2D decomposition crossed
// with Beamer's hybrid direction switch, both in PAPERS.md, over a
// per-shard copy of the single-node NVM stack).
//
// R shards (ShardGrid) each hold one edge block (ShardNode) in the
// paper's semi-external split: a DRAM copy that the bottom-up sweep reads
// and an NVM copy on the shard's private devices that only top-down
// expansion reads. Shards exchange compressed frontier messages
// (frontier_codec) over the shard::MessageBus. One BFS level is one pool
// region of `ranks` workers, one per shard, split by two barriers:
//
//   1. frontier exchange — every owner encodes its current frontier once
//      and multicasts it to the shards of its publish row and, on
//      bottom-up levels, down its own grid column. After barrier (1) row
//      receivers OR it into their visited replica (the word-skip sweep's
//      "done" bitmap) and, on top-down levels, keep it as the expansion
//      input; column receivers build the destination-block membership
//      bitmap the sweep probes. On bottom-up levels bitmap payloads are
//      ORed in 64 vertices at a time.
//   2. claims —
//      top-down:   shards expand the published row frontier through
//                  their block (merged, pipelined reads of the NVM copy,
//                  redone from the DRAM copy if a read fails) and
//                  send one (child, parent) claim per cut edge to the
//                  child's owner — the communication volume is
//                  O(frontier edges), which is what the direction switch
//                  collapses;
//      bottom-up:  shards word-skip-sweep the unvisited sources of their
//                  row block that have an edge in the block, probe the
//                  DRAM copy's adjacency against the membership bitmap
//                  with first-hit exit, and propose at most one claim per
//                  source — O(new vertices) traffic and no device I/O, so
//                  only top-down levels can fail over to a degraded read.
//      After barrier (2) owners drain claims in the bus's fixed sender
//      order, first claim per child wins, and write parent/level
//      (single-writer: only the owner ever touches its block's BFS
//      state). Each claim it accepts also sets the child's bit in its claim
//      bitmap, from which the next frontier is read in ascending order.
//
// After the join, the calling thread sums the shards' tallies and the
// per-phase byte deltas into ShardLevelStats and runs the SwitchPolicy on
// the same PolicyInput the single-node hybrid uses. Every step above
// is deterministic for a given (graph, root, config, fault seeds): the
// blocks' adjacency is sorted, so message order, claim resolution and
// the per-level stats replay bit-for-bit across runs, instances and
// processes, whatever the pool size.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bfs/level_stats.hpp"
#include "bfs/policy.hpp"
#include "graph/edge_list.hpp"
#include "nvm/device_profile.hpp"
#include "nvm/fault_plan.hpp"
#include "parallel/thread_pool.hpp"
#include "shard/frontier_codec.hpp"
#include "shard/message_bus.hpp"
#include "shard/shard_grid.hpp"
#include "shard/shard_node.hpp"

namespace sembfs::shard {

struct ShardedBfsConfig {
  SwitchPolicy policy;
  /// Forced direction for baselines; Hybrid uses the policy.
  enum class Mode { Hybrid, TopDownOnly, BottomUpOnly };
  Mode mode = Mode::Hybrid;
  /// Per-message frontier/membership encoding policy.
  EncodingChoice frontier_encoding = EncodingChoice::kAuto;
};

struct ShardLevelStats {
  int level = 0;
  Direction direction = Direction::TopDown;
  std::int64_t frontier_vertices = 0;
  std::int64_t claimed_vertices = 0;
  /// Remote payload bytes this level, split by exchange phase
  /// (remote_bytes = frontier + membership + claim bytes).
  std::uint64_t remote_bytes = 0;
  std::uint64_t frontier_bytes = 0;
  std::uint64_t membership_bytes = 0;
  std::uint64_t claim_bytes = 0;
  std::uint64_t remote_messages = 0;
  /// Wall seconds summed across shards, split into exchange
  /// (encode/send/drain/decode) and compute (expansion/sweep/claim
  /// resolution, including simulated device time on top-down levels).
  double exchange_seconds = 0.0;
  double compute_seconds = 0.0;
  /// Device requests of the top-down fetches; 0 on bottom-up levels.
  std::uint64_t nvm_requests = 0;
  /// Block entries the bottom-up sweep examined, up to each source's
  /// first hit; 0 on top-down levels.
  std::uint64_t scanned_edges = 0;
  std::uint64_t io_failures = 0;     ///< batches whose reads failed for good
  std::uint64_t degraded_shards = 0; ///< shards that redid the level from DRAM
};

struct ShardedBfsResult {
  Vertex root = kNoVertex;
  double seconds = 0.0;
  std::int32_t depth = 0;
  std::int64_t visited = 0;
  std::uint64_t total_remote_bytes = 0;
  std::uint64_t total_remote_messages = 0;
  std::vector<ShardLevelStats> levels;
  std::vector<Vertex> parent;
  std::vector<std::int32_t> level;
  std::int64_t teps_edge_count = 0;
  double teps = 0.0;
  std::uint64_t io_failures = 0;
  /// Any shard served any level from its DRAM fallback.
  bool degraded = false;
};

class ShardedBfs {
 public:
  /// Partitions `edges` into shards x (2D) edge blocks and offloads each
  /// to its shard's private devices under `workdir`/shard<k>. The pool
  /// must have at least `shards` workers. `grid_rows` forces the grid
  /// height (0 = as square as the count allows, see ShardGrid).
  ShardedBfs(const EdgeList& edges, std::size_t shards, ThreadPool& pool,
             const DeviceProfile& profile, const std::string& workdir,
             const ShardNodeConfig& node_config = {},
             std::size_t grid_rows = 0);

  [[nodiscard]] const ShardGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return grid_.shard_count();
  }
  [[nodiscard]] Vertex vertex_count() const noexcept {
    return grid_.vertex_count();
  }
  [[nodiscard]] ShardNode& node(std::size_t shard) noexcept {
    return *nodes_[shard];
  }
  /// Device bytes across all shards (the "does it fit one node" total).
  [[nodiscard]] std::uint64_t nvm_byte_size() const noexcept;
  /// Largest single shard's device bytes (per-node footprint).
  [[nodiscard]] std::uint64_t max_shard_nvm_byte_size() const noexcept;
  /// Largest single shard's resident DRAM block copy, in bytes.
  [[nodiscard]] std::uint64_t max_shard_dram_byte_size() const noexcept;

  /// Arms per-shard fault plans derived from `base`: shard k draws from
  /// seed base.seed + k, so failure domains are independent and each
  /// shard's fault sequence is reproducible in isolation. A disabled
  /// plan clears all shards.
  void arm_fault_plans(const FaultPlan& base);
  /// Arms a plan on one shard only (targeted failure-domain tests).
  void set_fault_plan(std::size_t shard, const FaultPlan& plan);

  ShardedBfsResult run(Vertex root, const ShardedBfsConfig& config);

 private:
  ShardGrid grid_;
  ThreadPool& pool_;
  std::vector<std::unique_ptr<ShardNode>> nodes_;
};

}  // namespace sembfs::shard
