// The hybrid (direction-optimizing) BFS's configuration and result types —
// the paper's core algorithm, generic over where each graph side lives
// (GraphStorage, graph/graph_storage.hpp):
//
//   forward graph:  DRAM (ForwardGraph) or simulated NVM
//                   (ExternalForwardGraph) — the paper's key offload,
//                   optionally with short lists kept in DRAM (its tier
//                   limit)
//   backward graph: DRAM (BackwardGraph) or partially offloaded
//                   (HybridBackwardGraph, Section VI-E)
//
// The level loop that runs the level-synchronous steps, switches direction
// per the configured SwitchPolicy and records per-level statistics for the
// analysis benches (Figures 10-14) is engine::ProgramSession stepping an
// engine::BfsProgram; HybridBfsRunner (engine/bfs_program.hpp) wraps it
// for whole traversals.
#pragma once

#include <cstdint>
#include <vector>

#include "bfs/bfs_status.hpp"
#include "bfs/bottom_up.hpp"
#include "bfs/cancel.hpp"
#include "bfs/level_stats.hpp"
#include "bfs/policy.hpp"
#include "bfs/top_down.hpp"
#include "graph/graph_storage.hpp"
#include "numa/topology.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs::obs {
class TraceLog;
}  // namespace sembfs::obs

namespace sembfs {

enum class BfsMode {
  Hybrid,        ///< policy-driven direction switching (the paper's approach)
  TopDownOnly,   ///< baseline: conventional BFS
  BottomUpOnly,  ///< baseline: bottom-up every level
};

struct BfsConfig {
  SwitchPolicy policy;
  BfsMode mode = BfsMode::Hybrid;
  int batch_size = 64;              ///< top-down frontier dequeue batch
  /// Semi-external only: when nonzero, ensures the external forward graph
  /// carries a DRAM chunk cache serving repeated 4 KiB chunks (hub
  /// index/adjacency blocks). The first traversal to ask sizes it, ~this
  /// many bytes, for the graph's lifetime; 0 leaves the graph's current
  /// cache state untouched, so a warm cache survives across runs.
  std::size_t chunk_cache_bytes = 0;
  /// Semi-external only: attempts, backoff and deadline of every top-down
  /// read. The default is one attempt, so a failed read is contained at
  /// once and its level redone bottom-up from DRAM.
  RetryPolicy io_retry{.max_attempts = 1};
  /// Hard adjacency-fetch failures (post-retry) tolerated per top-down
  /// level before the step aborts and the session completes the level via
  /// the DRAM bottom-up direction. 0 = degrade on the first failure.
  std::uint64_t io_error_budget = 0;
  /// Semi-external only (requires chunk_cache_bytes != 0): verify every
  /// chunk fetched from the device against the offload-time CRC32s,
  /// re-fetching corrupted chunks. Off by default so the fault-free
  /// benchmark path pays no checksum cost.
  bool verify_chunk_checksums = false;
  /// When non-null, the session appends one obs::TraceSpan per executed
  /// level (LevelStats + the PolicyInput the switch policy saw + its
  /// decision). The log must outlive every session using it. nullptr (the
  /// default) records nothing and costs nothing.
  obs::TraceLog* trace = nullptr;
  /// Cooperative cancellation/deadline token, polled by
  /// engine::ProgramSession::step() before each level (see cancel.hpp).
  /// When the token fires the session stops cleanly — done() flips,
  /// stop_reason() reports why, and BfsProgram::snapshot_result() still
  /// returns the valid partial traversal. The token must outlive every
  /// session using it. nullptr (the default) never stops early and costs
  /// nothing.
  const CancelToken* cancel = nullptr;
};

/// Applies `config`'s chunk-cache knobs to `external` before a top-down
/// (push) level: ensures the chunk cache exists, plus checksum
/// verification when requested. Idempotent and safe under concurrent
/// traversals of one graph — the engine session calls it every push level.
void prepare_external_storage(ExternalForwardGraph& external,
                              const BfsConfig& config);

/// The push options a level over `storage` takes from `config`.
[[nodiscard]] PushOptions push_options(const BfsConfig& config,
                                       const GraphStorage& storage);

struct BfsResult {
  Vertex root = kNoVertex;
  double seconds = 0.0;
  std::int32_t depth = 0;            ///< number of levels executed
  std::int64_t visited = 0;          ///< vertices in the BFS tree
  std::int64_t scanned_edges_top_down = 0;
  std::int64_t scanned_edges_bottom_up = 0;
  std::uint64_t nvm_requests = 0;
  std::uint64_t io_failures = 0;     ///< contained fetch failures (all levels)
  std::int32_t degraded_levels = 0;  ///< levels completed via the fallback
  /// True when any level exceeded its I/O error budget and was completed
  /// via the DRAM bottom-up direction. The parent tree is still valid —
  /// degradation trades the semi-external I/O pattern for availability.
  bool degraded = false;
  std::vector<LevelStats> levels;
  std::vector<Vertex> parent;        ///< the BFS tree (-1 = unreached)
  std::vector<std::int32_t> level;   ///< BFS depth per vertex (-1 = unreached)

  /// Graph500 TEPS numerator: undirected edges in the root's component.
  std::int64_t teps_edge_count = 0;
  double teps = 0.0;

  [[nodiscard]] std::int64_t scanned_edges_total() const noexcept {
    return scanned_edges_top_down + scanned_edges_bottom_up;
  }
};

}  // namespace sembfs
