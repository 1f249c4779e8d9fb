#include "bfs/bottom_up.hpp"

#include <array>
#include <bit>

#include "obs/metrics.hpp"

namespace sembfs {

namespace {

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

/// What every worker of one bottom-up step folds into.
struct BfsTotals {
  std::atomic<std::int64_t> claimed_degrees{0};
  std::atomic<std::uint64_t> hub_claims{0};
};

/// One worker's BFS word visitor: the hub probe, the first-hit scans of
/// the misses, and the word claim.
struct BfsWords {
  BfsStatus& status;
  std::int32_t level;
  BfsTotals& totals;
  std::array<Vertex, 64> parents{};  // this word's claims, by bit
  std::int64_t degrees = 0;
  std::uint64_t hub_claims = 0;
  std::uint64_t probes = 0;  // hub reads, for Figure 14

  template <typename Read>
  std::int64_t operator()(Read& read, std::size_t word,
                          std::uint64_t pending) {
    const Bitmap& frontier = status.frontier_bitmap();
    const DeltaBuffer* const delta = read.delta;
    const auto base = static_cast<Vertex>(word * 64);
    std::uint64_t claims = 0;

    // Pass 1: probe every survivor's hub against the frontier. Vertices
    // with inserts skip it: their scan starts at the inserts. A tombstoned
    // hub edge is a miss.
    std::uint64_t probed = 0;
    if (keeps_hubs(read.partition)) {
      probed = pending;
      if (delta != nullptr) probed &= ~delta->inserts_word(word);
      for_each_set_in_word(probed, 0, [&](std::size_t b) {
        const Vertex v = base + static_cast<Vertex>(b);
        const Vertex hub = hub_of(read.graph, read.partition, v);
        // Every probed vertex has a base edge: the skip mask took the
        // degree-0 vertices without inserts, and those with inserts are
        // not probed.
        SEMBFS_ASSERT(hub != kNoVertex);
        if (frontier.test(static_cast<std::size_t>(hub)) &&
            (delta == nullptr || !delta->edge_removed(v, hub))) {
          parents[b] = hub;
          claims |= std::uint64_t{1} << b;
        }
      });
      const int probe_count = std::popcount(probed);
      probes += static_cast<std::uint64_t>(probe_count);
      read.scanned += probe_count;
      hub_claims += static_cast<std::uint64_t>(std::popcount(claims));
    }

    // Pass 2: scan each miss's merged list past its probed hub, stopping
    // at the first frontier neighbor.
    for_each_set_in_word(pending & ~claims, 0, [&](std::size_t b) {
      const std::uint64_t bit = std::uint64_t{1} << b;
      read(
          base + static_cast<Vertex>(b),
          [&](Vertex candidate) {
            if (!frontier.test(static_cast<std::size_t>(candidate)))
              return true;
            parents[b] = candidate;
            claims |= bit;
            return false;  // bottom-up early exit
          },
          (probed & bit) != 0 ? 1 : 0);
    });
    if (claims == 0) return 0;

    // Single-writer per vertex: each unvisited vertex is swept by exactly
    // one worker per level, so the word claim needs no CAS.
    status.claim_bottom_up_word(word, claims, parents, level);
    status.next_frontier().or_word_atomic(word, claims);
    // The claimed vertices' full degrees (for TEPS) come from the
    // partition's index.
    for_each_set_in_word(claims, 0, [&](std::size_t b) {
      const Vertex v = base + static_cast<Vertex>(b);
      degrees += read.partition.degree(v);
      if (delta != nullptr) degrees += delta->degree_adjustment(v);
    });
    return std::popcount(claims);
  }

  template <typename Read>
  void end_partition(Read& read) {
    count_hub_probes(read.partition, probes);
    totals.claimed_degrees.fetch_add(degrees, std::memory_order_relaxed);
    totals.hub_claims.fetch_add(hub_claims, std::memory_order_relaxed);
    probes = 0;
    degrees = 0;
    hub_claims = 0;
  }
};

}  // namespace

StepResult bottom_up_step(const BackwardStorage& backward, BfsStatus& status,
                          std::int32_t level, const NumaTopology& topology,
                          ThreadPool& pool, std::int64_t chunk,
                          const DeltaBuffer* delta) {
  BfsTotals totals;
  const PullResult pull = pull_sweep(
      backward, delta, status.visited_bitmap(), topology, pool, chunk,
      [&](std::size_t /*worker*/) {
        return BfsWords{status, level, totals};
      });

  if (obs::enabled()) {
    static obs::Counter* const swept =
        &obs::metrics().counter("bfs.bottom_up.words_swept");
    static obs::Counter* const skipped =
        &obs::metrics().counter("bfs.bottom_up.words_skipped");
    static obs::Counter* const hub_claims =
        &obs::metrics().counter("bfs.bottom_up.hub_claims");
    static obs::Counter* const stolen =
        &obs::metrics().counter("bfs.bottom_up.chunks_stolen");
    swept->add(pull.words_swept);
    skipped->add(pull.words_skipped);
    stolen->add(pull.chunks_stolen);
    hub_claims->add(totals.hub_claims.load(std::memory_order_relaxed));
  }

  StepResult result = pull.step;
  result.claimed_degrees =
      totals.claimed_degrees.load(std::memory_order_relaxed);
  return result;
}

}  // namespace sembfs
