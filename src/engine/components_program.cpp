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
  std::vector<std::int64_t> improved(pool.size(), 0);
  Bitmap& next = active_->next_bitmap();

  StepResult result = scatter_active(
      ctx.storage.forward, active_->queue(pool), *ctx.topology, pool,
      push_options(*ctx.config, ctx.storage),
      [&](std::size_t w, Vertex u, std::span<const Vertex> adj) {
        const Vertex lu = labels_[static_cast<std::size_t>(u)].load(
            std::memory_order_relaxed);
        for (const Vertex dst : adj) {
          if (labels_[static_cast<std::size_t>(dst)].load(
                  std::memory_order_relaxed) <= lu)
            continue;
          if (atomic_fetch_min(labels_[static_cast<std::size_t>(dst)], lu)) {
            next.set_atomic(static_cast<std::size_t>(dst));
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
  Bitmap& next = active_->next_bitmap();
  const auto label = [&](std::size_t v) {
    return labels_[v].load(std::memory_order_relaxed);
  };

  // Full sweep: every vertex recomputes its label as the min over its
  // merged-view in-neighbors (single writer per vertex — plain stores
  // suffice, and the sweep's correctness is independent of the current
  // active set). The executor skips degree-0 vertices without inserts,
  // whose labels cannot change. Device faults on a hybrid backward graph
  // propagate as NvmIoError, exactly like the BFS degrade path's backward
  // reads.
  const auto min_label = [&](std::size_t /*worker*/) {
    return [&](auto& read, std::size_t word, std::uint64_t pending) {
      std::int64_t improved = 0;
      for_each_set_in_word(pending, word * 64, [&](std::size_t v) {
        Vertex best = label(v);
        read(static_cast<Vertex>(v), [&](Vertex u) {
          best = std::min(best, label(static_cast<std::size_t>(u)));
          return true;
        });
        if (best < label(v)) {
          labels_[v].store(best, std::memory_order_relaxed);
          next.set_atomic(v);
          ++improved;
        }
      });
      return improved;
    };
  };
  return pull_sweep(ctx.storage.backward, ctx.storage.delta, NothingDone{},
                    *ctx.topology, *ctx.pool, kPullChunk, min_label)
      .step;
}

StepResult ComponentsProgram::degrade(EngineContext& ctx) {
  // Monotone min labels: the failed push superstep's partial improvements
  // are kept, and one full backward sweep completes the superstep.
  return pull_step(ctx);
}

}  // namespace sembfs::engine
