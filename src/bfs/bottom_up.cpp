#include "bfs/bottom_up.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "bfs/sweep.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace sembfs {

namespace {

struct TeamState {
  explicit TeamState(std::size_t nodes, std::size_t workers)
      : cursors(nodes), buffers(workers) {
    for (auto& c : cursors) c.store(0, std::memory_order_relaxed);
  }
  std::vector<std::atomic<std::int64_t>> cursors;  // offset within node range
  std::vector<std::vector<Vertex>> buffers;        // Queue output only
  std::atomic<std::int64_t> claimed{0};
  std::atomic<std::int64_t> claimed_degrees{0};
  std::atomic<std::int64_t> scanned{0};
  std::atomic<std::uint64_t> nvm_requests{0};
  std::atomic<std::uint64_t> words_swept{0};
  std::atomic<std::uint64_t> words_skipped{0};
};

StepResult finish(TeamState& state, BfsStatus& status, ThreadPool& pool,
                  BottomUpOutput output) {
  if (output == BottomUpOutput::Queue)
    status.set_next_merged(state.buffers, pool);
  // Bitmap output: the claims are already in the per-worker bitmaps that
  // begin_bitmap_next() registered; advance() merges them word-wise.

  if (obs::enabled()) {
    static obs::Counter* const swept =
        &obs::metrics().counter("bfs.bottom_up.words_swept");
    static obs::Counter* const skipped =
        &obs::metrics().counter("bfs.bottom_up.words_skipped");
    swept->add(state.words_swept.load(std::memory_order_relaxed));
    skipped->add(state.words_skipped.load(std::memory_order_relaxed));
  }

  StepResult result;
  result.claimed = state.claimed.load(std::memory_order_relaxed);
  result.claimed_degrees =
      state.claimed_degrees.load(std::memory_order_relaxed);
  result.scanned_edges = state.scanned.load(std::memory_order_relaxed);
  result.nvm_requests = state.nvm_requests.load(std::memory_order_relaxed);
  return result;
}

template <typename Backward>
StepResult sweep(Backward& backward, BfsStatus& status, std::int32_t level,
                 const NumaTopology& topology, ThreadPool& pool,
                 std::int64_t chunk, BottomUpOutput output,
                 const DeltaBuffer* delta) {
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  TeamState state{topology.node_count(), workers};
  if (output == BottomUpOutput::Bitmap) status.begin_bitmap_next(workers);
  const AtomicBitmap& visited = status.visited_bitmap();
  // Inserts can give a degree-0 base vertex in-edges, so the mask only
  // applies to the sealed graph.
  const Bitmap* const skip =
      delta == nullptr ? &backward.degree_zero() : nullptr;

  pool.run(workers, [&](std::size_t w) {
    auto& out = state.buffers[w];
    Bitmap* const out_bits =
        output == BottomUpOutput::Bitmap ? &status.worker_next(w) : nullptr;
    std::vector<Vertex> scratch;  // NVM chunk staging (hybrid only)
    std::int64_t local_claimed = 0;
    std::int64_t local_degrees = 0;
    std::int64_t local_scanned = 0;
    std::uint64_t local_requests = 0;
    std::uint64_t local_swept = 0;
    std::uint64_t local_skipped = 0;

    for_each_assigned_node(w, workers, backward.node_count(), [&](std::size_t node) {
      auto& part = backward.partition(node);
      const VertexRange range = part.source_range();
      auto& cursor = state.cursors[node];
      for (;;) {
        const std::int64_t lo =
            cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= range.size()) break;
        const std::int64_t hi =
            std::min<std::int64_t>(range.size(), lo + chunk);
        const auto [swept, skipped] = sweep_unvisited(
            visited, range.begin + lo, range.begin + hi, [&](Vertex vtx) {
              // Single-writer per vertex: each unvisited vertex is swept
              // by exactly one worker per level, so the plain
              // release-store claim needs no CAS. The claimed vertex's
              // full degree (for TEPS) comes from the index just scanned.
              const auto claim = [&](Vertex candidate) {
                status.claim_bottom_up(vtx, candidate, level);
                if (out_bits != nullptr) {
                  out_bits->set(static_cast<std::size_t>(vtx));
                } else {
                  out.push_back(vtx);
                }
                ++local_claimed;
                local_degrees += part.degree(vtx);
                if (delta != nullptr)
                  local_degrees += delta->degree_adjustment(vtx);
              };
              // Delta-inserted in-neighbors first: DRAM-cheap, and an
              // early exit here skips the base scan (and any NVM tail)
              // entirely.
              if (delta != nullptr && delta->has_inserts(vtx)) {
                for (const Vertex candidate : delta->inserted(vtx)) {
                  ++local_scanned;
                  if (status.in_frontier(candidate)) {
                    claim(candidate);
                    return;  // bottom-up early exit
                  }
                }
              }
              local_requests +=
                  visit_neighbors(part, vtx, scratch, [&](Vertex candidate) {
                    ++local_scanned;
                    if (status.in_frontier(candidate) &&
                        (delta == nullptr ||
                         !delta->edge_removed(vtx, candidate))) {
                      claim(candidate);
                      return false;  // bottom-up early exit
                    }
                    return true;
                  });
            },
            skip);
        local_swept += swept;
        local_skipped += skipped;
      }
    });
    state.claimed.fetch_add(local_claimed, std::memory_order_relaxed);
    state.claimed_degrees.fetch_add(local_degrees, std::memory_order_relaxed);
    state.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    state.nvm_requests.fetch_add(local_requests, std::memory_order_relaxed);
    state.words_swept.fetch_add(local_swept, std::memory_order_relaxed);
    state.words_skipped.fetch_add(local_skipped, std::memory_order_relaxed);
  });

  return finish(state, status, pool, output);
}

}  // namespace

StepResult bottom_up_step(const BackwardStorage& backward, BfsStatus& status,
                          std::int32_t level, const NumaTopology& topology,
                          ThreadPool& pool, std::int64_t chunk,
                          BottomUpOutput output, const DeltaBuffer* delta) {
  SEMBFS_EXPECTS(chunk >= 1);
  return visit_graph(backward, [&](auto& graph) {
    return sweep(graph, status, level, topology, pool, chunk, output, delta);
  });
}

}  // namespace sembfs
