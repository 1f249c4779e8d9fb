// Top-down BFS steps (paper Figure 1), NUMA-aware.
//
// Every emulated NUMA node runs a thread team over the *whole* frontier
// against its destination-filtered forward partition; because partition k
// only contains destinations owned by node k, all claims and next-frontier
// writes stay node-local (NETAL's delegation scheme). Threads dequeue
// frontier vertices in fixed batches (64 in the paper) from a per-node
// cursor.
//
// Three variants share the skeleton:
//  - top_down_step:          forward graph in DRAM
//  - top_down_step_external: forward graph on simulated NVM; each dequeue
//    batch's merged index and value reads go through the graph's
//    IoScheduler, the next batch's in flight while this one is expanded
//    (ExternalCsrPartition::fetch_batches_pipelined)
//  - top_down_step_tiered:   small adjacencies in DRAM, hubs read per
//    vertex from NVM.
#pragma once

#include "bfs/bfs_status.hpp"
#include "bfs/level_stats.hpp"
#include "graph/delta_buffer.hpp"
#include "graph/external_csr.hpp"
#include "graph/forward_graph.hpp"
#include "graph/tiered_forward.hpp"
#include "numa/topology.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs {

struct StepResult {
  std::int64_t claimed = 0;        ///< vertices newly added to the tree
  std::int64_t scanned_edges = 0;  ///< adjacency entries examined
  std::uint64_t nvm_requests = 0;  ///< device requests issued (external only)
  std::uint64_t io_failures = 0;   ///< adjacency fetches that failed for good
  bool aborted = false;            ///< workers stopped early: budget exceeded

  /// True when this step may have skipped frontier expansions — the level
  /// is then incomplete and must be redone (the session falls back to the
  /// DRAM bottom-up direction).
  [[nodiscard]] bool io_failed() const noexcept {
    return io_failures > 0 || aborted;
  }
};

StepResult top_down_step(const ForwardGraph& forward, BfsStatus& status,
                         std::int32_t level, const NumaTopology& topology,
                         ThreadPool& pool, int batch_size = 64,
                         const DeltaBuffer* delta = nullptr);

struct ExternalTopDownOptions {
  int batch_size = 64;
  /// Attempts, backoff and deadline of every read the step posts. The
  /// default is one attempt: a failed read is contained at once.
  RetryPolicy retry{.max_attempts = 1};
  /// Failed batch fetches (after `retry`) the step tolerates before every
  /// worker stops claiming batches. A failure never propagates as an
  /// exception — it is contained, counted in StepResult::io_failures, and
  /// the affected vertices are simply not expanded, leaving the level
  /// incomplete (StepResult::io_failed()). 0 = abort the level on the
  /// first hard failure.
  std::uint64_t io_error_budget = 0;
  /// Merged-view overlay: when non-null, every expanded vertex reads its
  /// adjacency through the delta buffer (tombstoned base entries hidden,
  /// destination-filtered inserts appended). nullptr = sealed base graph.
  const DeltaBuffer* delta = nullptr;
};

StepResult top_down_step_external(ExternalForwardGraph& forward,
                                  BfsStatus& status, std::int32_t level,
                                  const NumaTopology& topology,
                                  ThreadPool& pool,
                                  const ExternalTopDownOptions& options = {});

/// Top-down over the degree-tiered forward graph (small-degree adjacency
/// in DRAM, hubs on NVM — paper future work).
StepResult top_down_step_tiered(TieredForwardGraph& forward,
                                BfsStatus& status, std::int32_t level,
                                const NumaTopology& topology,
                                ThreadPool& pool, int batch_size = 64,
                                const DeltaBuffer* delta = nullptr);

}  // namespace sembfs
