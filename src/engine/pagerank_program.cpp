#include "engine/pagerank_program.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "engine/scatter.hpp"
#include "graph/backward_graph.hpp"
#include "graph/hybrid_csr.hpp"
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
  parallel_for(*ctx.pool, 0, n, [&](std::int64_t v) {
    const std::int64_t deg = ctx.storage.degree(v);
    inv_degree_[static_cast<std::size_t>(v)] =
        deg > 0 ? 1.0 / static_cast<double>(deg) : 0.0;
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

  const BfsConfig& config = *ctx.config;
  const auto edge_fn = [&](std::size_t /*w*/, std::size_t /*node*/, Vertex u,
                           std::span<const Vertex> adj) {
    const double contrib = ranks_[static_cast<std::size_t>(u)] *
                           inv_degree_[static_cast<std::size_t>(u)];
    if (contrib == 0.0) return;
    for (const Vertex dst : adj)
      atomic_add(sums_[static_cast<std::size_t>(dst)], contrib);
  };

  const DeltaBuffer* const delta = ctx.storage.delta;
  ScatterStats scatter;
  if (ctx.storage.forward_dram != nullptr) {
    scatter = scatter_active(*ctx.storage.forward_dram, all_, *ctx.topology,
                             pool, config.batch_size, edge_fn, delta);
  } else if (ctx.storage.forward_tiered != nullptr) {
    scatter = scatter_active(*ctx.storage.forward_tiered, all_, *ctx.topology,
                             pool, config.batch_size, edge_fn, delta);
  } else {
    ExternalForwardGraph& external = *ctx.storage.forward_external;
    ExternalTopDownOptions io = external_step_options(config);
    io.delta = delta;
    scatter = scatter_active(external, all_, *ctx.topology, pool, io,
                             edge_fn);
  }

  StepResult result;
  result.scanned_edges = scatter.scanned_edges;
  result.nvm_requests = scatter.nvm_requests;
  result.io_failures = scatter.io_failures;
  result.aborted = scatter.aborted;
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
  if (ctx.storage.backward_dram == nullptr &&
      ctx.storage.backward_hybrid == nullptr) {
    throw NvmIoError(
        "pagerank pull superstep " + std::to_string(ctx.superstep) +
        " requires a backward graph and none is attached");
  }
  ThreadPool& pool = *ctx.pool;
  const Vertex n = ctx.vertex_count();
  const DeltaBuffer* const delta = ctx.storage.delta;
  std::vector<std::int64_t> scanned(pool.size(), 0);

  // Merged-view extension of v's in-adjacency: the delta's inserted copies.
  const auto sum_over_inserts = [&](Vertex v, double sum,
                                    std::int64_t& scans) -> double {
    if (delta == nullptr || !delta->has_inserts(v)) return sum;
    for (const Vertex u : delta->inserted(v)) {
      ++scans;
      sum += ranks_[static_cast<std::size_t>(u)] *
             inv_degree_[static_cast<std::size_t>(u)];
    }
    return sum;
  };

  if (ctx.storage.backward_dram != nullptr) {
    const BackwardGraph& backward = *ctx.storage.backward_dram;
    parallel_for_blocked(pool, 0, n,
                         [&](std::int64_t lo, std::int64_t hi,
                             std::size_t w) {
      for (std::int64_t v = lo; v < hi; ++v) {
        const std::span<const Vertex> adj =
            backward.neighbors(static_cast<Vertex>(v));
        scanned[w] += static_cast<std::int64_t>(adj.size());
        double sum = 0.0;
        for (const Vertex u : adj) {
          if (delta != nullptr && delta->edge_removed(v, u)) continue;
          sum += ranks_[static_cast<std::size_t>(u)] *
                 inv_degree_[static_cast<std::size_t>(u)];
        }
        sum = sum_over_inserts(static_cast<Vertex>(v), sum, scanned[w]);
        sums_[static_cast<std::size_t>(v)].store(sum,
                                                 std::memory_order_relaxed);
      }
    });
  } else {
    HybridBackwardGraph& backward = *ctx.storage.backward_hybrid;
    const VertexPartition& partition = backward.vertex_partition();
    parallel_for_blocked(pool, 0, n,
                         [&](std::int64_t lo, std::int64_t hi,
                             std::size_t w) {
      std::vector<Vertex> scratch;
      for (std::int64_t v = lo; v < hi; ++v) {
        double sum = 0.0;
        backward.partition(partition.node_of(v))
            .visit_neighbors(static_cast<Vertex>(v), scratch,
                             [&](Vertex u) {
                               ++scanned[w];
                               if (delta != nullptr &&
                                   delta->edge_removed(v, u))
                                 return true;
                               sum += ranks_[static_cast<std::size_t>(u)] *
                                      inv_degree_[static_cast<std::size_t>(u)];
                               return true;
                             });
        sum = sum_over_inserts(static_cast<Vertex>(v), sum, scanned[w]);
        sums_[static_cast<std::size_t>(v)].store(sum,
                                                 std::memory_order_relaxed);
      }
    });
  }
  StepResult result;
  for (const std::int64_t s : scanned) result.scanned_edges += s;
  return result;
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
