#include "engine/components_program.hpp"

#include <algorithm>
#include <string>

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
  active_->begin_bitmap_next(pool.size());
  std::vector<std::int64_t> improved(pool.size(), 0);

  StepResult result = scatter_active(
      ctx.storage.forward, active_->queue(), *ctx.topology, pool,
      push_options(*ctx.config, ctx.storage),
      [&](std::size_t w, Vertex u, std::span<const Vertex> adj) {
        const Vertex lu = labels_[static_cast<std::size_t>(u)].load(
            std::memory_order_relaxed);
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
      });
  for (const std::int64_t c : improved) result.claimed += c;
  return result;
}

StepResult ComponentsProgram::pull_step(EngineContext& ctx) {
  if (!attached(ctx.storage.backward)) {
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
  std::vector<std::uint64_t> requests(pool.size(), 0);
  const auto label = [&](std::int64_t v) {
    return labels_[static_cast<std::size_t>(v)].load(
        std::memory_order_relaxed);
  };

  // Full sweep: every vertex recomputes its label from its complete
  // merged-view in-adjacency (single writer per vertex — plain stores
  // suffice, and the sweep's correctness is independent of the current
  // active set). Device faults on a hybrid backward graph propagate as
  // NvmIoError, exactly like the BFS degrade path's backward reads.
  visit_graph(ctx.storage.backward, [&](auto& backward) {
    parallel_for_blocked(pool, 0, n,
                         [&](std::int64_t lo, std::int64_t hi,
                             std::size_t w) {
      Bitmap& next = active_->worker_next(w);
      std::vector<Vertex> scratch;
      std::int64_t local_scanned = 0;
      std::uint64_t local_requests = 0;
      for (std::int64_t v = lo; v < hi; ++v) {
        Vertex best = label(v);
        local_requests += visit_in_neighbors(
            backward, static_cast<Vertex>(v), scratch, [&](Vertex u) {
              ++local_scanned;
              if (delta == nullptr || !delta->edge_removed(v, u))
                best = std::min(best, label(u));
              return true;
            });
        if (delta != nullptr && delta->has_inserts(v)) {
          for (const Vertex u : delta->inserted(v)) {
            ++local_scanned;
            best = std::min(best, label(u));
          }
        }
        if (best < label(v)) {
          labels_[static_cast<std::size_t>(v)].store(
              best, std::memory_order_relaxed);
          next.set(static_cast<std::size_t>(v));
          ++improved[w];
        }
      }
      scanned[w] += local_scanned;
      requests[w] += local_requests;
    });
  });

  StepResult result;
  for (const std::int64_t c : improved) result.claimed += c;
  for (const std::int64_t s : scanned) result.scanned_edges += s;
  for (const std::uint64_t r : requests) result.nvm_requests += r;
  return result;
}

StepResult ComponentsProgram::degrade(EngineContext& ctx) {
  // Monotone min labels: the failed push superstep's partial improvements
  // are kept, and one full backward sweep completes the superstep.
  return pull_step(ctx);
}

}  // namespace sembfs::engine
