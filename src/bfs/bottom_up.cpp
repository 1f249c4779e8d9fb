#include "bfs/bottom_up.hpp"

#include <algorithm>
#include <array>
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
  std::atomic<std::uint64_t> hub_claims{0};
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
    static obs::Counter* const hub_claims =
        &obs::metrics().counter("bfs.bottom_up.hub_claims");
    swept->add(state.words_swept.load(std::memory_order_relaxed));
    skipped->add(state.words_skipped.load(std::memory_order_relaxed));
    hub_claims->add(state.hub_claims.load(std::memory_order_relaxed));
  }

  StepResult result;
  result.claimed = state.claimed.load(std::memory_order_relaxed);
  result.claimed_degrees =
      state.claimed_degrees.load(std::memory_order_relaxed);
  result.scanned_edges = state.scanned.load(std::memory_order_relaxed);
  result.nvm_requests = state.nvm_requests.load(std::memory_order_relaxed);
  return result;
}

// Where each backward format answers the hub probe from: the DRAM graph's
// dense hub array, or the head of the hybrid graph's DRAM prefix, which
// counts as one DRAM edge for Figure 14. A hybrid graph with k = 0 keeps
// no hub, so its vertices skip the probe.
bool keeps_hubs(const Csr& /*part*/) { return true; }
bool keeps_hubs(const HybridBackwardPartition& part) {
  return part.dram_edges_per_vertex() > 0;
}
Vertex hub_of(const BackwardGraph& graph, const Csr& /*part*/, Vertex v) {
  return graph.hubs()[static_cast<std::size_t>(v)];
}
Vertex hub_of(const HybridBackwardGraph& /*graph*/,
              const HybridBackwardPartition& part, Vertex v) {
  return part.hub(v);
}
void count_hub_probes(const Csr& /*part*/, std::uint64_t /*probes*/) {}
void count_hub_probes(HybridBackwardPartition& part, std::uint64_t probes) {
  part.count_hub_probes(probes);
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
  const Bitmap& frontier = status.frontier_bitmap();

  pool.run(workers, [&](std::size_t w) {
    auto& out = state.buffers[w];
    Bitmap* const out_bits =
        output == BottomUpOutput::Bitmap ? &status.worker_next(w) : nullptr;
    std::vector<Vertex> scratch;  // NVM chunk staging (hybrid only)
    std::array<Vertex, 64> parents{};  // this word's claims, by bit
    std::int64_t local_claimed = 0;
    std::int64_t local_degrees = 0;
    std::int64_t local_scanned = 0;
    std::uint64_t local_requests = 0;
    std::uint64_t local_swept = 0;
    std::uint64_t local_skipped = 0;
    std::uint64_t local_hub_claims = 0;

    for_each_assigned_node(w, workers, backward.node_count(), [&](std::size_t node) {
      auto& part = backward.partition(node);
      const VertexRange range = part.source_range();
      const bool probe = keeps_hubs(part);
      auto& cursor = state.cursors[node];
      for (;;) {
        const std::int64_t lo =
            cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= range.size()) break;
        const std::int64_t hi =
            std::min<std::int64_t>(range.size(), lo + chunk);
        std::uint64_t probes = 0;
        const auto scan_word = [&](std::size_t word, std::uint64_t pending) {
          const auto base = static_cast<Vertex>(word * 64);
          std::uint64_t claims = 0;

          // Pass 1: probe every survivor's hub against the frontier.
          // Vertices with inserts skip it: their scan starts at the
          // inserts. A tombstoned hub edge is a miss.
          std::uint64_t probed = 0;
          if (probe) {
            probed = pending;
            if (delta != nullptr) probed &= ~delta->inserts_word(word);
            for_each_set_in_word(probed, 0, [&](std::size_t b) {
              const Vertex v = base + static_cast<Vertex>(b);
              const Vertex hub = hub_of(backward, part, v);
              // Every probed vertex has a base edge: the skip mask took the
              // degree-0 vertices without inserts, and those with inserts
              // are not probed.
              SEMBFS_ASSERT(hub != kNoVertex);
              if (frontier.test(static_cast<std::size_t>(hub)) &&
                  (delta == nullptr || !delta->edge_removed(v, hub))) {
                parents[b] = hub;
                claims |= std::uint64_t{1} << b;
              }
            });
            probes += static_cast<std::uint64_t>(std::popcount(probed));
            local_hub_claims +=
                static_cast<std::uint64_t>(std::popcount(claims));
          }

          // Pass 2: scan each miss's list past its probed hub, inserts
          // first (DRAM-cheap; an early exit there skips the base scan and
          // any NVM tail), then the base list minus tombstones.
          for_each_set_in_word(pending & ~claims, 0, [&](std::size_t b) {
            const Vertex v = base + static_cast<Vertex>(b);
            const std::uint64_t bit = std::uint64_t{1} << b;
            const auto claim = [&](Vertex parent) {
              parents[b] = parent;
              claims |= bit;
            };
            if (delta != nullptr && delta->has_inserts(v)) {
              for (const Vertex candidate : delta->inserted(v)) {
                ++local_scanned;
                if (frontier.test(static_cast<std::size_t>(candidate))) {
                  claim(candidate);
                  return;  // bottom-up early exit
                }
              }
            }
            local_requests += visit_neighbors(
                part, v, scratch,
                [&](Vertex candidate) {
                  ++local_scanned;
                  if (frontier.test(static_cast<std::size_t>(candidate)) &&
                      (delta == nullptr ||
                       !delta->edge_removed(v, candidate))) {
                    claim(candidate);
                    return false;  // bottom-up early exit
                  }
                  return true;
                },
                (probed & bit) != 0 ? 1 : 0);
          });
          if (claims == 0) return;

          // Single-writer per vertex: each unvisited vertex is swept by
          // exactly one worker per level, so the word claim needs no CAS.
          status.claim_bottom_up_word(word, claims, parents, level);
          if (out_bits != nullptr) {
            out_bits->words()[word] |= claims;
          }
          local_claimed += std::popcount(claims);
          // The claimed vertices' full degrees (for TEPS) come from the
          // partition's index.
          for_each_set_in_word(claims, 0, [&](std::size_t b) {
            const Vertex v = base + static_cast<Vertex>(b);
            if (out_bits == nullptr) out.push_back(v);
            local_degrees += part.degree(v);
            if (delta != nullptr) local_degrees += delta->degree_adjustment(v);
          });
        };
        const auto [swept, skipped] = sweep_unvisited_words(
            visited, range.begin + lo, range.begin + hi, scan_word,
            degree_zero_skip(backward.degree_zero(), delta));
        local_swept += swept;
        local_skipped += skipped;
        local_scanned += static_cast<std::int64_t>(probes);
        count_hub_probes(part, probes);
      }
    });
    state.claimed.fetch_add(local_claimed, std::memory_order_relaxed);
    state.claimed_degrees.fetch_add(local_degrees, std::memory_order_relaxed);
    state.scanned.fetch_add(local_scanned, std::memory_order_relaxed);
    state.nvm_requests.fetch_add(local_requests, std::memory_order_relaxed);
    state.words_swept.fetch_add(local_swept, std::memory_order_relaxed);
    state.words_skipped.fetch_add(local_skipped, std::memory_order_relaxed);
    state.hub_claims.fetch_add(local_hub_claims, std::memory_order_relaxed);
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
