#include "bfs/top_down.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/contracts.hpp"

namespace sembfs {

namespace {

// Shared state for one top-down level: per-node frontier cursors and
// per-worker output buffers, merged on the pool at the end of the level.
struct TeamState {
  explicit TeamState(std::size_t nodes, std::size_t workers)
      : cursors(nodes), buffers(workers) {
    for (auto& c : cursors) c.store(0, std::memory_order_relaxed);
  }
  std::vector<std::atomic<std::int64_t>> cursors;
  std::vector<std::vector<Vertex>> buffers;
  std::atomic<std::int64_t> claimed{0};
  std::atomic<std::int64_t> scanned{0};
  std::atomic<std::uint64_t> nvm_requests{0};
  std::atomic<std::uint64_t> io_failures{0};
  std::atomic<bool> abort{false};

  /// Contains one adjacency-fetch failure: counts it and, past the budget,
  /// tells every worker to stop claiming batches. Exceptions never cross
  /// the thread-pool boundary.
  void contain_failure(std::uint64_t budget) noexcept {
    const std::uint64_t failed =
        io_failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (failed > budget) abort.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool aborted() const noexcept {
    return abort.load(std::memory_order_relaxed);
  }
};

StepResult finish(TeamState& state, BfsStatus& status, ThreadPool& pool) {
  status.set_next_merged(state.buffers, pool);

  StepResult result;
  result.claimed = state.claimed.load(std::memory_order_relaxed);
  result.scanned_edges = state.scanned.load(std::memory_order_relaxed);
  result.nvm_requests = state.nvm_requests.load(std::memory_order_relaxed);
  result.io_failures = state.io_failures.load(std::memory_order_relaxed);
  result.aborted = state.abort.load(std::memory_order_relaxed);
  return result;
}

}  // namespace

StepResult top_down_step(const ForwardGraph& forward, BfsStatus& status,
                         std::int32_t level, const NumaTopology& topology,
                         ThreadPool& pool, int batch_size,
                         const DeltaBuffer* delta) {
  SEMBFS_EXPECTS(batch_size >= 1);
  const auto& frontier = status.frontier();
  const auto frontier_n = static_cast<std::int64_t>(frontier.size());
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  TeamState state{topology.node_count(), workers};

  pool.run(workers, [&](std::size_t w) {
    auto& out = state.buffers[w];
    std::int64_t local_claimed = 0;
    std::int64_t local_scanned = 0;

    const auto expand = [&](Vertex v, Vertex dst) {
      ++local_scanned;
      if (!status.is_visited(dst) && status.claim(dst, v, level)) {
        out.push_back(dst);
        ++local_claimed;
      }
    };

    for_each_assigned_node(w, workers, forward.node_count(), [&](std::size_t node) {
      const Csr& part = forward.partition(node);
      auto& cursor = state.cursors[node];
      for (;;) {
        const std::int64_t lo =
            cursor.fetch_add(batch_size, std::memory_order_relaxed);
        if (lo >= frontier_n) break;
        const std::int64_t hi =
            std::min<std::int64_t>(frontier_n, lo + batch_size);
        for (std::int64_t i = lo; i < hi; ++i) {
          const Vertex v = frontier[static_cast<std::size_t>(i)];
          if (delta == nullptr || !delta->touches(v)) {
            for (const Vertex dst : part.neighbors(v)) expand(v, dst);
          } else {
            delta->for_each_merged(v, part.neighbors(v),
                                   part.destination_range(),
                                   [&](Vertex dst) { expand(v, dst); });
          }
        }
      }
    });
    state.claimed.fetch_add(local_claimed, std::memory_order_relaxed);
    state.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
  });

  return finish(state, status, pool);
}

StepResult top_down_step_external(ExternalForwardGraph& forward,
                                  BfsStatus& status, std::int32_t level,
                                  const NumaTopology& topology,
                                  ThreadPool& pool,
                                  const ExternalTopDownOptions& options) {
  SEMBFS_EXPECTS(options.batch_size >= 1);
  const int batch_size = options.batch_size;
  const auto& frontier = status.frontier();
  const auto frontier_n = static_cast<std::int64_t>(frontier.size());
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  IoScheduler& scheduler = forward.io_scheduler(workers);
  TeamState state{topology.node_count(), workers};

  pool.run(workers, [&](std::size_t w) {
    auto& out = state.buffers[w];
    std::int64_t local_claimed = 0;
    std::int64_t local_scanned = 0;
    std::uint64_t local_requests = 0;

    const auto expand = [&](Vertex v, Vertex dst) {
      ++local_scanned;
      if (!status.is_visited(dst) && status.claim(dst, v, level)) {
        out.push_back(dst);
        ++local_claimed;
      }
    };

    for_each_assigned_node(w, workers, forward.node_count(), [&](std::size_t node) {
      ExternalCsrPartition& part = forward.partition(node);
      auto& cursor = state.cursors[node];
      const auto claim_batch = [&]() -> std::span<const Vertex> {
        if (state.aborted()) return {};  // budget exceeded: stop claiming
        const std::int64_t lo =
            cursor.fetch_add(batch_size, std::memory_order_relaxed);
        if (lo >= frontier_n) return {};
        const std::int64_t hi =
            std::min<std::int64_t>(frontier_n, lo + batch_size);
        return {frontier.data() + lo, static_cast<std::size_t>(hi - lo)};
      };
      const auto process = [&](std::span<const Vertex> batch,
                               const std::vector<std::vector<Vertex>>& adj) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const Vertex v = batch[i];
          if (options.delta == nullptr || !options.delta->touches(v)) {
            for (const Vertex dst : adj[i]) expand(v, dst);
          } else {
            options.delta->for_each_merged(
                v, adj[i], part.destination_range(),
                [&](Vertex dst) { expand(v, dst); });
          }
        }
      };
      local_requests += part.fetch_batches_pipelined(
          scheduler, options.retry, claim_batch, process,
          [&] { state.contain_failure(options.io_error_budget); });
    });
    state.claimed.fetch_add(local_claimed, std::memory_order_relaxed);
    state.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    state.nvm_requests.fetch_add(local_requests, std::memory_order_relaxed);
  });

  return finish(state, status, pool);
}

StepResult top_down_step_tiered(TieredForwardGraph& forward,
                                BfsStatus& status, std::int32_t level,
                                const NumaTopology& topology,
                                ThreadPool& pool, int batch_size,
                                const DeltaBuffer* delta) {
  SEMBFS_EXPECTS(batch_size >= 1);
  const auto& frontier = status.frontier();
  const auto frontier_n = static_cast<std::int64_t>(frontier.size());
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  TeamState state{topology.node_count(), workers};

  pool.run(workers, [&](std::size_t w) {
    auto& out = state.buffers[w];
    std::vector<Vertex> scratch;
    std::int64_t local_claimed = 0;
    std::int64_t local_scanned = 0;
    std::uint64_t local_requests = 0;

    const auto expand = [&](Vertex v, Vertex dst) {
      ++local_scanned;
      if (!status.is_visited(dst) && status.claim(dst, v, level)) {
        out.push_back(dst);
        ++local_claimed;
      }
    };

    for_each_assigned_node(w, workers, forward.node_count(), [&](std::size_t node) {
      TieredForwardPartition& part = forward.partition(node);
      // Tiered partitions carry the same destination filter as the forward
      // partition they were split from: node k's vertex range.
      const VertexRange dest = forward.vertex_partition().range_of(node);
      auto& cursor = state.cursors[node];
      for (;;) {
        if (state.aborted()) break;
        const std::int64_t lo =
            cursor.fetch_add(batch_size, std::memory_order_relaxed);
        if (lo >= frontier_n) break;
        const std::int64_t hi =
            std::min<std::int64_t>(frontier_n, lo + batch_size);
        for (std::int64_t i = lo; i < hi; ++i) {
          const Vertex v = frontier[static_cast<std::size_t>(i)];
          // Only hub adjacencies touch the device; a failed fetch is
          // contained like in the external step (first failure aborts).
          try {
            local_requests += part.fetch_neighbors(v, scratch);
          } catch (const std::exception&) {
            state.contain_failure(0);
            continue;
          }
          if (delta == nullptr || !delta->touches(v)) {
            for (const Vertex dst : scratch) expand(v, dst);
          } else {
            delta->for_each_merged(v, scratch, dest,
                                   [&](Vertex dst) { expand(v, dst); });
          }
        }
      }
    });
    state.claimed.fetch_add(local_claimed, std::memory_order_relaxed);
    state.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    state.nvm_requests.fetch_add(local_requests, std::memory_order_relaxed);
  });

  return finish(state, status, pool);
}

}  // namespace sembfs
