#include "engine/components_program.hpp"

#include <algorithm>
#include <string>

#include "engine/scatter.hpp"
#include "graph/backward_graph.hpp"
#include "graph/hybrid_csr.hpp"
#include "parallel/atomics.hpp"
#include "parallel/parallel_for.hpp"
#include "util/contracts.hpp"

namespace sembfs::engine {

void ComponentsProgram::init(EngineContext& ctx) {
  const Vertex n = ctx.vertex_count();
  if (!initialized_ ||
      static_cast<Vertex>(labels_.size()) != n) {
    labels_ = std::vector<std::atomic<Vertex>>(static_cast<std::size_t>(n));
    active_.emplace(n);
  }
  parallel_for(*ctx.pool, 0, n, [&](std::int64_t v) {
    labels_[static_cast<std::size_t>(v)].store(static_cast<Vertex>(v),
                                               std::memory_order_relaxed);
  });
  active_->seed_all();
  initialized_ = true;
}

bool ComponentsProgram::converged(const EngineContext& ctx) const {
  (void)ctx;
  return initialized_ && active_->size() == 0;
}

std::vector<Vertex> ComponentsProgram::labels() const {
  std::vector<Vertex> out(labels_.size());
  for (std::size_t v = 0; v < labels_.size(); ++v)
    out[v] = labels_[v].load(std::memory_order_relaxed);
  return out;
}

StepResult ComponentsProgram::step(EngineContext& ctx, Direction direction) {
  if (direction == Direction::BottomUp) return pull_step(ctx);

  ThreadPool& pool = *ctx.pool;
  const BfsConfig& config = *ctx.config;
  active_->begin_bitmap_next(pool.size());
  std::vector<std::int64_t> improved(pool.size(), 0);

  const auto edge_fn = [&](std::size_t w, std::size_t /*node*/, Vertex u,
                           std::span<const Vertex> adj) {
    const Vertex lu =
        labels_[static_cast<std::size_t>(u)].load(std::memory_order_relaxed);
    Bitmap& next = active_->worker_next(w);
    for (const Vertex dst : adj) {
      if (labels_[static_cast<std::size_t>(dst)].load(
              std::memory_order_relaxed) <= lu)
        continue;
      if (atomic_fetch_min(labels_[static_cast<std::size_t>(dst)], lu)) {
        next.set(static_cast<std::size_t>(dst));
        ++improved[w];
      }
    }
  };

  const std::span<const Vertex> queue{active_->queue()};
  const DeltaBuffer* const delta = ctx.storage.delta;
  ScatterStats scatter;
  if (ctx.storage.forward_dram != nullptr) {
    scatter = scatter_active(*ctx.storage.forward_dram, queue, *ctx.topology,
                             pool, config.batch_size, edge_fn, delta);
  } else if (ctx.storage.forward_tiered != nullptr) {
    scatter = scatter_active(*ctx.storage.forward_tiered, queue,
                             *ctx.topology, pool, config.batch_size, edge_fn,
                             delta);
  } else {
    ExternalForwardGraph& external = *ctx.storage.forward_external;
    ExternalTopDownOptions io = external_step_options(config);
    io.delta = delta;
    scatter = scatter_active(external, queue, *ctx.topology, pool, io,
                             edge_fn);
  }

  StepResult result;
  result.scanned_edges = scatter.scanned_edges;
  result.nvm_requests = scatter.nvm_requests;
  result.io_failures = scatter.io_failures;
  result.aborted = scatter.aborted;
  for (const std::int64_t c : improved) result.claimed += c;
  return result;
}

StepResult ComponentsProgram::pull_step(EngineContext& ctx) {
  if (ctx.storage.backward_dram == nullptr &&
      ctx.storage.backward_hybrid == nullptr) {
    throw NvmIoError(
        "components pull superstep " + std::to_string(ctx.superstep) +
        " requires a backward graph and none is attached");
  }
  ThreadPool& pool = *ctx.pool;
  const Vertex n = ctx.vertex_count();
  const DeltaBuffer* const delta = ctx.storage.delta;
  active_->begin_bitmap_next(pool.size());

  std::vector<std::int64_t> improved(pool.size(), 0);
  std::vector<std::int64_t> scanned(pool.size(), 0);

  // Merged-view in-neighbors of v beyond the base adjacency: the delta's
  // inserted copies (undirected — both endpoints carry them).
  const auto min_over_inserts = [&](Vertex v, Vertex best,
                                    std::int64_t& scans) -> Vertex {
    if (delta == nullptr || !delta->has_inserts(v)) return best;
    for (const Vertex u : delta->inserted(v)) {
      ++scans;
      best = std::min(best, labels_[static_cast<std::size_t>(u)].load(
                                std::memory_order_relaxed));
    }
    return best;
  };

  // Full sweep: every vertex recomputes its label from its complete
  // in-adjacency (single writer per vertex — plain stores suffice, and
  // the sweep's correctness is independent of the current active set).
  if (ctx.storage.backward_dram != nullptr) {
    const BackwardGraph& backward = *ctx.storage.backward_dram;
    parallel_for_blocked(pool, 0, n,
                         [&](std::int64_t lo, std::int64_t hi,
                             std::size_t w) {
      Bitmap& next = active_->worker_next(w);
      for (std::int64_t v = lo; v < hi; ++v) {
        const std::span<const Vertex> adj =
            backward.neighbors(static_cast<Vertex>(v));
        scanned[w] += static_cast<std::int64_t>(adj.size());
        Vertex best = labels_[static_cast<std::size_t>(v)].load(
            std::memory_order_relaxed);
        for (const Vertex u : adj) {
          if (delta != nullptr && delta->edge_removed(v, u)) continue;
          best = std::min(best, labels_[static_cast<std::size_t>(u)].load(
                                    std::memory_order_relaxed));
        }
        best = min_over_inserts(static_cast<Vertex>(v), best, scanned[w]);
        if (best < labels_[static_cast<std::size_t>(v)].load(
                       std::memory_order_relaxed)) {
          labels_[static_cast<std::size_t>(v)].store(
              best, std::memory_order_relaxed);
          next.set(static_cast<std::size_t>(v));
          ++improved[w];
        }
      }
    });
  } else {
    HybridBackwardGraph& backward = *ctx.storage.backward_hybrid;
    const VertexPartition& partition = backward.vertex_partition();
    parallel_for_blocked(pool, 0, n,
                         [&](std::int64_t lo, std::int64_t hi,
                             std::size_t w) {
      Bitmap& next = active_->worker_next(w);
      std::vector<Vertex> scratch;
      for (std::int64_t v = lo; v < hi; ++v) {
        Vertex best = labels_[static_cast<std::size_t>(v)].load(
            std::memory_order_relaxed);
        // Device faults here propagate as NvmIoError, exactly like the
        // BFS degrade path's backward reads.
        backward.partition(partition.node_of(v))
            .visit_neighbors(static_cast<Vertex>(v), scratch,
                             [&](Vertex u) {
                               ++scanned[w];
                               if (delta != nullptr &&
                                   delta->edge_removed(v, u))
                                 return true;
                               best = std::min(
                                   best,
                                   labels_[static_cast<std::size_t>(u)].load(
                                       std::memory_order_relaxed));
                               return true;
                             });
        best = min_over_inserts(static_cast<Vertex>(v), best, scanned[w]);
        if (best < labels_[static_cast<std::size_t>(v)].load(
                       std::memory_order_relaxed)) {
          labels_[static_cast<std::size_t>(v)].store(
              best, std::memory_order_relaxed);
          next.set(static_cast<std::size_t>(v));
          ++improved[w];
        }
      }
    });
  }

  StepResult result;
  for (const std::int64_t c : improved) result.claimed += c;
  for (const std::int64_t s : scanned) result.scanned_edges += s;
  return result;
}

StepResult ComponentsProgram::degrade(EngineContext& ctx) {
  // Monotone min labels: the failed push superstep's partial improvements
  // are kept, and one full backward sweep completes the superstep.
  return pull_step(ctx);
}

}  // namespace sembfs::engine
