#include "engine/pagerank_program.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "parallel/parallel_for.hpp"
#include "util/contracts.hpp"

namespace sembfs::engine {

namespace {

/// fetch_add for doubles via a relaxed CAS loop (std::atomic<double>'s
/// fetch_add is C++20 but spotty across toolchains; the accumulations
/// commute so relaxed ordering suffices — visibility comes from the
/// pool join).
void atomic_add(std::atomic<double>& slot, double value) noexcept {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

void PageRankProgram::init(EngineContext& ctx) {
  const Vertex n = ctx.vertex_count();
  const auto count = static_cast<std::size_t>(n);
  ranks_.assign(count, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  inv_degree_.assign(count, 0.0);
  sums_ = std::vector<std::atomic<double>>(count);
  all_.resize(count);
  std::iota(all_.begin(), all_.end(), Vertex{0});
  with_degree(ctx.storage, [&](const auto& degree_of) {
    parallel_for(*ctx.pool, 0, n, [&](std::int64_t v) {
      const std::int64_t deg = degree_of(v);
      inv_degree_[static_cast<std::size_t>(v)] =
          deg > 0 ? 1.0 / static_cast<double>(deg) : 0.0;
    });
  });
  iterations_ = 0;
  last_delta_ = 0.0;
  initialized_ = true;
}

bool PageRankProgram::converged(const EngineContext& ctx) const {
  (void)ctx;
  if (!initialized_) return false;
  if (iterations_ >= options_.max_iterations) return true;
  return iterations_ > 0 && last_delta_ < options_.tolerance;
}

StepResult PageRankProgram::step(EngineContext& ctx, Direction direction) {
  ThreadPool& pool = *ctx.pool;
  const Vertex n = ctx.vertex_count();
  parallel_for(pool, 0, n, [&](std::int64_t v) {
    sums_[static_cast<std::size_t>(v)].store(0.0, std::memory_order_relaxed);
  });
  dangling_mass_ = parallel_reduce<double>(
      pool, 0, n, 0.0,
      [&](double& acc, std::int64_t v) {
        if (inv_degree_[static_cast<std::size_t>(v)] == 0.0)
          acc += ranks_[static_cast<std::size_t>(v)];
      },
      [](double a, double b) { return a + b; });

  if (direction == Direction::BottomUp) {
    StepResult result = accumulate_pull(ctx);
    finalize_iteration(ctx);
    result.claimed = n;
    return result;
  }

  StepResult result = scatter_active(
      ctx.storage.forward, all_, *ctx.topology, pool,
      push_options(*ctx.config, ctx.storage),
      [&](std::size_t /*w*/, Vertex u, std::span<const Vertex> adj) {
        const double contrib = ranks_[static_cast<std::size_t>(u)] *
                               inv_degree_[static_cast<std::size_t>(u)];
        if (contrib == 0.0) return;
        for (const Vertex dst : adj)
          atomic_add(sums_[static_cast<std::size_t>(dst)], contrib);
      });
  if (result.io_failed()) {
    // Incomplete accumulation — the session will call degrade(), which
    // recomputes this iteration from scratch. Do NOT finalize here.
    return result;
  }
  finalize_iteration(ctx);
  result.claimed = n;
  return result;
}

StepResult PageRankProgram::accumulate_pull(EngineContext& ctx) {
  if (!attached(ctx.storage.backward)) {
    throw NvmIoError(
        "pagerank pull superstep " + std::to_string(ctx.superstep) +
        " requires a backward graph and none is attached");
  }
  const auto contribution = [&](Vertex u) {
    return ranks_[static_cast<std::size_t>(u)] *
           inv_degree_[static_cast<std::size_t>(u)];
  };

  // Every vertex sums its merged-view in-neighbors' contributions:
  // inserted copies first, then base entries minus tombstoned pairs. The
  // executor skips degree-0 vertices without inserts; step() zeroed their
  // sums, and no push reaches them either.
  const auto sum_in = [&](std::size_t /*w*/) {
    return [&](auto& read, std::size_t word, std::uint64_t pending) {
      for_each_set_in_word(pending, word * 64, [&](std::size_t v) {
        double sum = 0.0;
        read(static_cast<Vertex>(v), [&](Vertex u) {
          sum += contribution(u);
          return true;
        });
        sums_[v].store(sum, std::memory_order_relaxed);
      });
      return std::int64_t{0};
    };
  };
  return pull_sweep(ctx.storage.backward, ctx.storage.delta, NothingDone{},
                    *ctx.topology, *ctx.pool, kPullChunk, sum_in)
      .step;
}

void PageRankProgram::finalize_iteration(EngineContext& ctx) {
  ThreadPool& pool = *ctx.pool;
  const Vertex n = ctx.vertex_count();
  if (n == 0) {
    ++iterations_;
    last_delta_ = 0.0;
    return;
  }
  const double d = options_.damping;
  const double base =
      (1.0 - d) / static_cast<double>(n) +
      d * dangling_mass_ / static_cast<double>(n);
  last_delta_ = parallel_reduce<double>(
      pool, 0, n, 0.0,
      [&](double& acc, std::int64_t v) {
        const auto i = static_cast<std::size_t>(v);
        const double next =
            base + d * sums_[i].load(std::memory_order_relaxed);
        acc = std::max(acc, std::fabs(next - ranks_[i]));
        ranks_[i] = next;
      },
      [](double a, double b) { return std::max(a, b); });
  ++iterations_;
}

StepResult PageRankProgram::degrade(EngineContext& ctx) {
  // The iteration is a pure function of the previous ranks: discard the
  // partial push accumulation and recompute the whole iteration from the
  // backward graph.
  StepResult redo = accumulate_pull(ctx);
  finalize_iteration(ctx);
  redo.claimed = ctx.vertex_count();
  return redo;
}

}  // namespace sembfs::engine
