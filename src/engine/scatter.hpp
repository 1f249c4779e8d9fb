// Generic push-direction (scatter) executor for vertex programs.
//
// This is the top-down BFS kernel's team structure (src/bfs/top_down.cpp)
// with the claim loop abstracted out: every emulated NUMA node runs a
// thread team over the whole active list against its destination-filtered
// forward partition, dequeuing vertices in fixed batches from a per-node
// cursor, and hands each (vertex, partition-adjacency) pair to a caller
// visitor. Because partition k only holds destinations owned by node k,
// whatever per-destination state the visitor writes stays node-local —
// the same delegation scheme the BFS kernels use.
//
// Three overloads cover the three forward storages:
//  - ForwardGraph:         DRAM adjacency spans, no I/O.
//  - ExternalForwardGraph: semi-external; the BFS step's read loop
//    (ExternalCsrPartition::fetch_batches_pipelined) under the same
//    ExternalTopDownOptions (built by external_step_options()). Failed
//    fetches are contained (never thrown across the pool): counted, and
//    past the error budget every worker stops claiming batches.
//  - TieredForwardGraph:   DRAM short lists + NVM hubs; first hard
//    failure aborts, as in top_down_step_tiered.
//
// The visitor is called as
//     edge_fn(worker, node, u, std::span<const Vertex> adjacency)
// once per active vertex per partition that lists it. The executor counts
// scanned adjacency entries and I/O; claims/updates are the visitor's
// business (per-worker accumulation recommended — `worker` indexes
// [0, pool.size()) even when fewer workers participate).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <span>
#include <vector>

#include "bfs/top_down.hpp"
#include "graph/delta_buffer.hpp"
#include "graph/external_csr.hpp"
#include "graph/forward_graph.hpp"
#include "graph/tiered_forward.hpp"
#include "graph/types.hpp"
#include "numa/topology.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/contracts.hpp"

namespace sembfs::engine {

struct ScatterStats {
  std::int64_t scanned_edges = 0;  ///< adjacency entries delivered
  std::uint64_t nvm_requests = 0;  ///< device requests issued
  std::uint64_t io_failures = 0;   ///< contained fetch failures
  bool aborted = false;            ///< workers stopped early: budget exceeded

  /// True when some active vertices may not have been delivered — the
  /// superstep is incomplete and the program must degrade or fail.
  [[nodiscard]] bool io_failed() const noexcept {
    return io_failures > 0 || aborted;
  }
};

namespace detail {

/// Shared per-level team state: per-node cursors over the active list plus
/// the contained-failure protocol (identical to the BFS TeamState).
struct ScatterTeam {
  explicit ScatterTeam(std::size_t nodes) : cursors(nodes) {
    for (auto& c : cursors) c.store(0, std::memory_order_relaxed);
  }
  std::vector<std::atomic<std::int64_t>> cursors;
  std::atomic<std::int64_t> scanned{0};
  std::atomic<std::uint64_t> nvm_requests{0};
  std::atomic<std::uint64_t> io_failures{0};
  std::atomic<bool> abort{false};

  void contain_failure(std::uint64_t budget) noexcept {
    const std::uint64_t failed =
        io_failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (failed > budget) abort.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool aborted() const noexcept {
    return abort.load(std::memory_order_relaxed);
  }

  [[nodiscard]] ScatterStats stats() const noexcept {
    ScatterStats s;
    s.scanned_edges = scanned.load(std::memory_order_relaxed);
    s.nvm_requests = nvm_requests.load(std::memory_order_relaxed);
    s.io_failures = io_failures.load(std::memory_order_relaxed);
    s.aborted = abort.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace detail

/// DRAM scatter.
template <typename EdgeFn>
ScatterStats scatter_active(const ForwardGraph& forward,
                            std::span<const Vertex> active,
                            const NumaTopology& topology, ThreadPool& pool,
                            int batch_size, EdgeFn&& edge_fn,
                            const DeltaBuffer* delta = nullptr) {
  SEMBFS_EXPECTS(batch_size >= 1);
  const auto active_n = static_cast<std::int64_t>(active.size());
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  detail::ScatterTeam team{topology.node_count()};

  pool.run(workers, [&](std::size_t w) {
    std::vector<Vertex> merged;  // merged-view staging (delta only)
    std::int64_t local_scanned = 0;
    for_each_assigned_node(w, workers, forward.node_count(),
                           [&](std::size_t node) {
      const Csr& part = forward.partition(node);
      const VertexRange dest = part.destination_range();
      auto& cursor = team.cursors[node];
      for (;;) {
        const std::int64_t lo =
            cursor.fetch_add(batch_size, std::memory_order_relaxed);
        if (lo >= active_n) break;
        const std::int64_t hi =
            std::min<std::int64_t>(active_n, lo + batch_size);
        for (std::int64_t i = lo; i < hi; ++i) {
          const Vertex u = active[static_cast<std::size_t>(i)];
          const std::span<const Vertex> adj = part.neighbors(u);
          if (delta == nullptr || !delta->touches(u)) {
            local_scanned += static_cast<std::int64_t>(adj.size());
            edge_fn(w, node, u, adj);
            continue;
          }
          merged.clear();
          delta->for_each_merged(u, adj, dest,
                                 [&](Vertex x) { merged.push_back(x); });
          local_scanned += static_cast<std::int64_t>(merged.size());
          edge_fn(w, node, u, std::span<const Vertex>{merged});
        }
      }
    });
    team.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
  });
  return team.stats();
}

/// Semi-external scatter: the same pipelined batch reads and containment as
/// top_down_step_external.
template <typename EdgeFn>
ScatterStats scatter_active(ExternalForwardGraph& forward,
                            std::span<const Vertex> active,
                            const NumaTopology& topology, ThreadPool& pool,
                            const ExternalTopDownOptions& options,
                            EdgeFn&& edge_fn) {
  SEMBFS_EXPECTS(options.batch_size >= 1);
  const int batch_size = options.batch_size;
  const auto active_n = static_cast<std::int64_t>(active.size());
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  IoScheduler& scheduler = forward.io_scheduler(workers);
  detail::ScatterTeam team{topology.node_count()};

  pool.run(workers, [&](std::size_t w) {
    std::vector<Vertex> merged;  // merged-view staging (delta only)
    std::int64_t local_scanned = 0;
    std::uint64_t local_requests = 0;

    for_each_assigned_node(w, workers, forward.node_count(),
                           [&](std::size_t node) {
      ExternalCsrPartition& part = forward.partition(node);
      auto& cursor = team.cursors[node];
      const auto claim_batch = [&]() -> std::span<const Vertex> {
        if (team.aborted()) return {};  // budget exceeded: stop claiming
        const std::int64_t lo =
            cursor.fetch_add(batch_size, std::memory_order_relaxed);
        if (lo >= active_n) return {};
        const std::int64_t hi =
            std::min<std::int64_t>(active_n, lo + batch_size);
        return active.subspan(static_cast<std::size_t>(lo),
                              static_cast<std::size_t>(hi - lo));
      };
      const auto deliver = [&](std::span<const Vertex> batch,
                               const std::vector<std::vector<Vertex>>& adjs) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const Vertex u = batch[i];
          std::span<const Vertex> adj{adjs[i]};
          const DeltaBuffer* const delta = options.delta;
          if (delta != nullptr && delta->touches(u)) {
            merged.clear();
            delta->for_each_merged(u, adj, part.destination_range(),
                                   [&](Vertex x) { merged.push_back(x); });
            adj = std::span<const Vertex>{merged};
          }
          local_scanned += static_cast<std::int64_t>(adj.size());
          edge_fn(w, node, u, adj);
        }
      };
      local_requests += part.fetch_batches_pipelined(
          scheduler, options.retry, claim_batch, deliver,
          [&] { team.contain_failure(options.io_error_budget); });
    });
    team.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    team.nvm_requests.fetch_add(local_requests, std::memory_order_relaxed);
  });
  return team.stats();
}

/// Tiered scatter: DRAM short lists are free, hub fetches touch the device
/// (first hard failure aborts, as in top_down_step_tiered).
template <typename EdgeFn>
ScatterStats scatter_active(TieredForwardGraph& forward,
                            std::span<const Vertex> active,
                            const NumaTopology& topology, ThreadPool& pool,
                            int batch_size, EdgeFn&& edge_fn,
                            const DeltaBuffer* delta = nullptr) {
  SEMBFS_EXPECTS(batch_size >= 1);
  const auto active_n = static_cast<std::int64_t>(active.size());
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  detail::ScatterTeam team{topology.node_count()};

  pool.run(workers, [&](std::size_t w) {
    std::vector<Vertex> scratch;
    std::vector<Vertex> merged;  // merged-view staging (delta only)
    std::int64_t local_scanned = 0;
    std::uint64_t local_requests = 0;

    for_each_assigned_node(w, workers, forward.node_count(),
                           [&](std::size_t node) {
      TieredForwardPartition& part = forward.partition(node);
      const VertexRange dest = forward.vertex_partition().range_of(node);
      auto& cursor = team.cursors[node];
      for (;;) {
        if (team.aborted()) break;
        const std::int64_t lo =
            cursor.fetch_add(batch_size, std::memory_order_relaxed);
        if (lo >= active_n) break;
        const std::int64_t hi =
            std::min<std::int64_t>(active_n, lo + batch_size);
        for (std::int64_t i = lo; i < hi; ++i) {
          const Vertex u = active[static_cast<std::size_t>(i)];
          try {
            local_requests += part.fetch_neighbors(u, scratch);
          } catch (const std::exception&) {
            team.contain_failure(0);
            continue;
          }
          std::span<const Vertex> adj{scratch};
          if (delta != nullptr && delta->touches(u)) {
            merged.clear();
            delta->for_each_merged(u, adj, dest,
                                   [&](Vertex x) { merged.push_back(x); });
            adj = std::span<const Vertex>{merged};
          }
          local_scanned += static_cast<std::int64_t>(adj.size());
          edge_fn(w, node, u, adj);
        }
      }
    });
    team.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    team.nvm_requests.fetch_add(local_requests, std::memory_order_relaxed);
  });
  return team.stats();
}

}  // namespace sembfs::engine
