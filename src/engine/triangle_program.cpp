#include "engine/triangle_program.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "util/contracts.hpp"

namespace sembfs::engine {

namespace {

struct AdjFetch {
  std::uint64_t requests = 0;
  bool healed = false;  ///< forward fetch failed, backward copy used
  bool failed = false;  ///< no intact source for this adjacency
};

/// Gathers v's full adjacency (union of the destination-filtered forward
/// partitions), sorted and dedup'd. A forward fetch failure falls back to
/// the backward graph's complete per-vertex adjacency — same edges, so
/// the count stays exact under fault injection.
template <typename Forward>
AdjFetch full_adjacency(Forward& forward, const GraphStorage& storage,
                        Vertex v, std::vector<Vertex>& out,
                        std::vector<Vertex>& scratch) {
  out.clear();
  AdjFetch result;
  try {
    for (std::size_t k = 0; k < forward.node_count(); ++k) {
      result.requests += fetch_neighbors(forward.partition(k), v, scratch);
      out.insert(out.end(), scratch.begin(), scratch.end());
    }
  } catch (const std::exception&) {
    out.clear();
    result.failed = true;
  }
  if (result.failed && attached(storage.backward)) {
    try {
      result.requests +=
          visit_graph(storage.backward, [&](auto& backward) {
            return visit_in_neighbors(backward, v, scratch, [&](Vertex u) {
              out.push_back(u);
              return true;
            });
          });
      result.healed = true;
      result.failed = false;
    } catch (const std::exception&) {
      out.clear();
    }
  }
  // Merged view: drop tombstoned pairs, append inserted neighbors (the
  // backward fallback holds the same base adjacency, so the merge is
  // uniform across sources). Dedup below absorbs insert multiplicity.
  const DeltaBuffer* const delta = storage.delta;
  if (delta != nullptr && delta->touches(v)) {
    std::erase_if(out, [&](Vertex w) { return delta->edge_removed(v, w); });
    const std::span<const Vertex> ins = delta->inserted(v);
    out.insert(out.end(), ins.begin(), ins.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return result;
}

}  // namespace

void TriangleProgram::init(EngineContext& ctx) {
  SEMBFS_EXPECTS(options_.vertices_per_step >= 1);
  n_ = ctx.vertex_count();
  cursor_ = 0;
  triangles_ = 0;
  initialized_ = true;
}

bool TriangleProgram::converged(const EngineContext& ctx) const {
  (void)ctx;
  return initialized_ && cursor_ >= static_cast<std::int64_t>(n_);
}

StepResult TriangleProgram::step(EngineContext& ctx, Direction direction) {
  SEMBFS_EXPECTS(direction == Direction::TopDown);
  ThreadPool& pool = *ctx.pool;
  const std::int64_t lo = cursor_;
  const std::int64_t hi =
      std::min<std::int64_t>(static_cast<std::int64_t>(n_),
                             lo + options_.vertices_per_step);

  struct WorkerTally {
    std::int64_t triangles = 0;
    std::int64_t scanned = 0;
    std::uint64_t requests = 0;
    std::uint64_t healed = 0;
    std::uint64_t failed = 0;
  };
  std::vector<WorkerTally> tally(pool.size());

  visit_graph(ctx.storage.forward, [&](auto& forward) {
    parallel_for_dynamic(pool, lo, hi, 16,
                         [&](std::int64_t block_lo, std::int64_t block_hi,
                             std::size_t w) {
      WorkerTally& t = tally[w];
      std::vector<Vertex> adj_u;
      std::vector<Vertex> adj_v;
      std::vector<Vertex> scratch;
      for (std::int64_t vi = block_lo; vi < block_hi; ++vi) {
        const auto u = static_cast<Vertex>(vi);
        const AdjFetch fu =
            full_adjacency(forward, ctx.storage, u, adj_u, scratch);
        t.requests += fu.requests;
        if (fu.healed) ++t.healed;
        if (fu.failed) {
          ++t.failed;
          continue;
        }
        t.scanned += static_cast<std::int64_t>(adj_u.size());
        for (const Vertex v : adj_u) {
          if (v <= u) continue;
          const AdjFetch fv =
              full_adjacency(forward, ctx.storage, v, adj_v, scratch);
          t.requests += fv.requests;
          if (fv.healed) ++t.healed;
          if (fv.failed) {
            ++t.failed;
            continue;
          }
          t.scanned += static_cast<std::int64_t>(adj_v.size());
          // Common neighbors w > v of the sorted lists: each match is one
          // triangle u < v < w.
          auto a = std::upper_bound(adj_u.begin(), adj_u.end(), v);
          auto b = std::upper_bound(adj_v.begin(), adj_v.end(), v);
          while (a != adj_u.end() && b != adj_v.end()) {
            if (*a < *b) {
              ++a;
            } else if (*b < *a) {
              ++b;
            } else {
              ++t.triangles;
              ++a;
              ++b;
            }
          }
        }
      }
    });
  });

  StepResult result;
  result.claimed = hi - lo;
  std::uint64_t healed = 0;
  for (const WorkerTally& t : tally) {
    triangles_ += t.triangles;
    result.scanned_edges += t.scanned;
    result.nvm_requests += t.requests;
    result.io_failures += t.failed;
    healed += t.healed;
  }
  if (healed != 0 && obs::enabled())
    obs::metrics().counter("engine.tc.healed_fetches").add(healed);
  cursor_ = hi;
  return result;
}

}  // namespace sembfs::engine
