// The push executor and the top-down BFS step (paper Figure 1), NUMA-aware.
//
// Every emulated NUMA node runs a thread team over the *whole* active list
// against its destination-filtered forward partition; because partition k
// only contains destinations owned by node k, all claims and next-frontier
// writes stay node-local (NETAL's delegation scheme). Threads dequeue
// active vertices in fixed batches (64 in the paper) from a per-node
// cursor.
//
// scatter_active is that team structure with the per-edge work left to a
// visitor. It dispatches on the forward storage once per call and reads
// each partition through its read_batches overload
// (graph/graph_storage.hpp): DRAM spans, or the semi-external pipelined
// batch reads (each dequeue batch's merged reads go through the graph's
// IoScheduler, the next batch's in flight while this one is expanded;
// lists under the graph's tier limit come straight from DRAM).
// top_down_step is scatter_active plus the BFS claim visitor, which also
// sums the claimed vertices' degrees for TEPS; the engine's components and
// PageRank programs bring their own visitors.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "bfs/bfs_status.hpp"
#include "bfs/level_stats.hpp"
#include "graph/graph_storage.hpp"
#include "numa/topology.hpp"
#include "parallel/thread_pool.hpp"
#include "util/contracts.hpp"

namespace sembfs {

struct StepResult {
  std::int64_t claimed = 0;        ///< vertices newly added to the tree
  /// Sum of the claimed vertices' full degrees (GraphStorage::degree): the
  /// BFS kernels add it at claim time, so a traversal's TEPS edge count
  /// needs no pass over the vertices afterwards.
  std::int64_t claimed_degrees = 0;
  std::int64_t scanned_edges = 0;  ///< adjacency entries examined
  std::uint64_t nvm_requests = 0;  ///< device requests issued
  std::uint64_t io_failures = 0;   ///< adjacency fetches that failed for good
  bool aborted = false;            ///< workers stopped early: budget exceeded

  /// True when this step may have skipped frontier expansions — the level
  /// is then incomplete and must be redone (the session falls back to the
  /// DRAM bottom-up direction).
  [[nodiscard]] bool io_failed() const noexcept {
    return io_failures > 0 || aborted;
  }
};

struct PushOptions {
  int batch_size = 64;
  /// Attempts, backoff and deadline of every semi-external read the step
  /// posts. The default is one attempt: a failed read is contained at once.
  RetryPolicy retry{.max_attempts = 1};
  /// Failed reads (after `retry`) the step tolerates before every worker
  /// stops claiming batches. A failure never propagates as an exception —
  /// it is contained, counted in StepResult::io_failures, and the affected
  /// vertices are simply not expanded, leaving the level incomplete
  /// (StepResult::io_failed()). 0 = abort the level on the first hard
  /// failure.
  std::uint64_t io_error_budget = 0;
  /// Merged-view overlay: when non-null, every expanded vertex reads its
  /// adjacency through the delta buffer (tombstoned base entries hidden,
  /// destination-filtered inserts appended). nullptr = sealed base graph.
  const DeltaBuffer* delta = nullptr;
};

namespace detail {

/// Shared state of one push level: per-node cursors over the active list
/// plus the contained-failure protocol.
struct PushTeam {
  explicit PushTeam(std::size_t nodes) : cursors(nodes) {
    for (auto& c : cursors) c.store(0, std::memory_order_relaxed);
  }
  std::vector<std::atomic<std::int64_t>> cursors;
  std::atomic<std::int64_t> scanned{0};
  std::atomic<std::uint64_t> nvm_requests{0};
  std::atomic<std::uint64_t> io_failures{0};
  std::atomic<bool> abort{false};

  /// Counts one failed read and, past the budget, tells every worker to
  /// stop claiming batches. Exceptions never cross the thread-pool
  /// boundary.
  void contain_failure(std::uint64_t budget) noexcept {
    const std::uint64_t failed =
        io_failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (failed > budget) abort.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool aborted() const noexcept {
    return abort.load(std::memory_order_relaxed);
  }

  [[nodiscard]] StepResult result() const noexcept {
    StepResult r;
    r.scanned_edges = scanned.load(std::memory_order_relaxed);
    r.nvm_requests = nvm_requests.load(std::memory_order_relaxed);
    r.io_failures = io_failures.load(std::memory_order_relaxed);
    r.aborted = abort.load(std::memory_order_relaxed);
    return r;
  }
};

template <typename Forward, typename EdgeFn>
StepResult scatter_over(Forward& forward, std::span<const Vertex> active,
                        const NumaTopology& topology, ThreadPool& pool,
                        const PushOptions& options, EdgeFn& edge_fn) {
  const auto active_n = static_cast<std::int64_t>(active.size());
  const auto batch_size = static_cast<std::int64_t>(options.batch_size);
  const DeltaBuffer* const delta = options.delta;
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  const ForwardReads reads = forward_reads(forward, workers, options.retry);
  PushTeam team{topology.node_count()};

  pool.run(workers, [&](std::size_t w) {
    std::vector<Vertex> merged;  // merged-view staging (delta only)
    std::int64_t local_scanned = 0;
    std::uint64_t local_requests = 0;

    for_each_assigned_node(w, workers, forward.node_count(),
                           [&](std::size_t node) {
      const VertexRange dest = forward.vertex_partition().range_of(node);
      auto& cursor = team.cursors[node];
      const auto next_batch = [&]() -> std::span<const Vertex> {
        if (team.aborted()) return {};  // budget exceeded: stop claiming
        const std::int64_t lo =
            cursor.fetch_add(batch_size, std::memory_order_relaxed);
        if (lo >= active_n) return {};
        const std::int64_t hi = std::min(active_n, lo + batch_size);
        return active.subspan(static_cast<std::size_t>(lo),
                              static_cast<std::size_t>(hi - lo));
      };
      const auto visit = [&](Vertex u, std::span<const Vertex> adj) {
        if (delta != nullptr && delta->touches(u)) {
          merged.clear();
          delta->for_each_merged(u, adj, dest,
                                 [&](Vertex x) { merged.push_back(x); });
          adj = std::span<const Vertex>{merged};
        }
        local_scanned += static_cast<std::int64_t>(adj.size());
        edge_fn(w, u, adj);
      };
      local_requests += read_batches(
          forward.partition(node), reads, next_batch, visit,
          [&] { team.contain_failure(options.io_error_budget); });
    });
    team.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    team.nvm_requests.fetch_add(local_requests, std::memory_order_relaxed);
  });
  return team.result();
}

}  // namespace detail

/// The push executor. Calls edge_fn(worker, u, adjacency) once per active
/// vertex u per forward partition that lists it, where `worker` indexes
/// [0, pool.size()) even when fewer workers take part; updates are the
/// visitor's business (per-worker accumulation recommended). The result
/// counts the adjacency entries delivered, the device requests issued and
/// the contained read failures; `claimed` is left 0.
template <typename EdgeFn>
StepResult scatter_active(const ForwardStorage& forward,
                          std::span<const Vertex> active,
                          const NumaTopology& topology, ThreadPool& pool,
                          const PushOptions& options, EdgeFn&& edge_fn) {
  SEMBFS_EXPECTS(options.batch_size >= 1);
  return visit_graph(forward, [&](auto& graph) {
    return detail::scatter_over(graph, active, topology, pool, options,
                                edge_fn);
  });
}

/// One top-down level: scatter_active over the frontier queue of
/// storage.forward with the BFS claim visitor, which sets each won claim in
/// the next frontier bitmap. The visitor reads each claimed vertex's degree
/// through with_degree(storage).
StepResult top_down_step(const GraphStorage& storage, BfsStatus& status,
                         std::int32_t level, const NumaTopology& topology,
                         ThreadPool& pool, const PushOptions& options = {});

}  // namespace sembfs
