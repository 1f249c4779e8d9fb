// The pull executor and the bottom-up BFS step (paper Figure 2), NUMA-aware
// and word-parallel.
//
// pull_sweep is the paper's bottom-up sweep with the per-word work left to
// a visitor, as scatter_active (top_down.hpp) is for push. Each emulated
// NUMA node's team sweeps its own vertex range against its backward
// partition (complete adjacency lists), taking chunk-sized slices from a
// per-partition work-stealing cursor. A worker that has drained its home
// partition then takes chunks from the other partitions' cursors, in
// order from the one after its home, so a sweep ends when the whole range
// is swept rather than when the slowest node's team finishes; each chunk
// still goes to exactly one worker. The word-skip sweep (bfs/sweep.hpp)
// loads 64 vertices' done bits at a time and masks out the backward
// graph's degree-0 vertices (no in-neighbor reaches them), less any a
// delta gives inserted in-neighbors; words with no survivors are skipped
// outright (on late levels nearly every word is done, so most of the
// vertex range costs one load + compare per 64 vertices). Each remaining
// word goes to the visitor with the worker's reader, which reads a
// vertex's in-neighbors under the merged view through visit_neighbors
// (graph/graph_storage.hpp) and counts every entry and device request. One
// kernel serves both backward storages: the executor dispatches on the
// backward side once per call, so a visitor compiles per format.
//
// Four visitors run on it: the BFS word kernel below, the serving layer's
// MS-BFS level (serve/ms_bfs.cpp), and the min-label and sum visitors of
// the engine's components and PageRank pull supersteps.
//
// The BFS word kernel takes each word in two passes:
//
//  1. The hub probe. Every list is hub-first, and hubs join the frontier
//     first, so most claims are decided by a list's first entry. Each
//     survivor's hub — read from the DRAM graph's dense hub array, or from
//     the head of the hybrid graph's DRAM prefix — is tested against the
//     frontier bitmap, building the word's hit mask without touching a
//     list. A probe counts as one scanned edge (and one DRAM edge in
//     Figure 14's counters). Vertices with delta inserts skip the probe,
//     since their merged list starts at the inserts; a tombstoned hub edge
//     is a miss. A hybrid graph with k = 0 keeps no hub and skips it too.
//  2. The misses. Each miss's merged list is read through the reader from
//     its second base entry (the first for vertices that skipped the
//     probe): a DRAM span, or the rest of the DRAM prefix and then the NVM
//     tail streamed from simulated NVM (paper Section VI-E / Figure 14).
//
// The traversal is the one-vertex-at-a-time scan's: the same first
// frontier parent in storage order, the same scanned edges, the same
// levels. The word's claims are written with one
// BfsStatus::claim_bottom_up_word — parent and level per vertex, the
// visited bits with one relaxed fetch_or, no CAS, because each unvisited
// vertex is swept by exactly one worker per level. Each claim also adds
// the vertex's full degree to StepResult::claimed_degrees, read from the
// partition's index. The counter bfs.bottom_up.hub_claims counts the
// claims the probe decided, and bfs.bottom_up.chunks_stolen the chunks
// swept outside a worker's home partition.
//
// The word's claims also go into the next frontier bitmap with one relaxed
// Bitmap::or_word_atomic: a chunk or node boundary inside a word leaves
// that word to two workers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "bfs/bfs_status.hpp"
#include "bfs/sweep.hpp"
#include "bfs/top_down.hpp"  // StepResult
#include "graph/graph_storage.hpp"
#include "numa/topology.hpp"
#include "parallel/thread_pool.hpp"
#include "util/contracts.hpp"

namespace sembfs {

/// Vertices per work-stealing chunk of a pull sweep.
inline constexpr std::int64_t kPullChunk = 1024;

/// What one pull sweep did. In `step`, `claimed` sums the visitor's
/// returns, and `scanned_edges` and `nvm_requests` are the readers' counts.
/// `chunks_stolen` counts the chunks workers took outside their home
/// partitions; it depends on scheduling, everything else does not.
struct PullResult {
  StepResult step;
  std::uint64_t words_swept = 0;
  std::uint64_t words_skipped = 0;
  std::uint64_t chunks_stolen = 0;
};

/// One worker's merged-view reader over the backward partition it is
/// sweeping (docs/MUTATIONS.md). A pull visitor reads in-neighbors only
/// through it, so every pull kernel counts its reads the same way:
/// `scanned` counts every entry examined, tombstoned ones included, and
/// `requests` every device request.
template <typename Backward>
struct PullReader {
  using Partition =
      std::remove_reference_t<decltype(std::declval<Backward&>().partition(0))>;

  Backward& graph;
  Partition& partition;
  const DeltaBuffer* delta;  ///< the merged view's delta; nullptr if sealed
  std::vector<Vertex>& scratch;  ///< NVM chunk staging (hybrid only)
  std::int64_t scanned = 0;
  std::uint64_t requests = 0;

  /// Calls fn(u) on v's merged-view in-neighbors until fn returns false:
  /// the delta's inserts first (DRAM-cheap, so an early exit there skips
  /// the base list and any NVM tail), then the base list from position
  /// `start` on, less tombstoned pairs. Device faults propagate as
  /// exceptions.
  template <typename Fn>
  void operator()(Vertex v, Fn&& fn, std::int64_t start = 0) {
    if (delta != nullptr && delta->has_inserts(v)) {
      for (const Vertex u : delta->inserted(v)) {
        ++scanned;
        if (!fn(u)) return;
      }
    }
    const bool tombstones = delta != nullptr && delta->touches(v);
    requests += visit_neighbors(
        partition, v, scratch,
        [&](Vertex u) {
          ++scanned;
          if (tombstones && delta->edge_removed(v, u)) return true;
          return fn(u);
        },
        start);
  }
};

namespace detail {

template <typename Backward, typename Done, typename MakeVisitor>
PullResult pull_over(Backward& backward, const DeltaBuffer* delta,
                     const Done& done, const NumaTopology& topology,
                     ThreadPool& pool, std::int64_t chunk,
                     MakeVisitor& make_visitor) {
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  const std::size_t nodes = backward.node_count();
  std::vector<std::atomic<std::int64_t>> cursors(nodes);  // within node range
  for (auto& c : cursors) c.store(0, std::memory_order_relaxed);
  std::vector<PullResult> folded(workers);
  const auto skip = degree_zero_skip(backward.degree_zero(), delta);

  pool.run(workers, [&](std::size_t w) {
    auto visit = make_visitor(w);
    std::vector<Vertex> scratch;
    PullResult local;
    // Takes chunks of partition `node` until its cursor runs past the end;
    // returns how many this worker took.
    const auto sweep_partition = [&](std::size_t node) {
      PullReader<Backward> read{backward, backward.partition(node), delta,
                                scratch};
      const VertexRange range = read.partition.source_range();
      auto& cursor = cursors[node];
      std::uint64_t chunks = 0;
      for (;; ++chunks) {
        const std::int64_t lo =
            cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= range.size()) break;
        const std::int64_t hi =
            std::min<std::int64_t>(range.size(), lo + chunk);
        const auto [swept, skipped] = sweep_unvisited_words(
            done, range.begin + lo, range.begin + hi,
            [&](std::size_t word, std::uint64_t pending) {
              local.step.claimed += visit(read, word, pending);
            },
            skip);
        local.words_swept += swept;
        local.words_skipped += skipped;
      }
      if (chunks == 0) return chunks;
      if constexpr (requires { visit.end_partition(read); })
        visit.end_partition(read);
      local.step.scanned_edges += read.scanned;
      local.step.nvm_requests += read.requests;
      return chunks;
    };
    // Home first, then help: every other partition, round from the one
    // after home. Home partitions are drained by then, so every chunk the
    // round takes is stolen.
    std::size_t home = 0;
    for_each_assigned_node(w, workers, nodes, [&](std::size_t node) {
      home = node;
      sweep_partition(node);
    });
    for (std::size_t i = 1; i < nodes; ++i)
      local.chunks_stolen += sweep_partition((home + i) % nodes);
    folded[w] = local;
  });

  PullResult result;
  for (const PullResult& local : folded) {
    result.step.claimed += local.step.claimed;
    result.step.scanned_edges += local.step.scanned_edges;
    result.step.nvm_requests += local.step.nvm_requests;
    result.words_swept += local.words_swept;
    result.words_skipped += local.words_skipped;
    result.chunks_stolen += local.chunks_stolen;
  }
  return result;
}

}  // namespace detail

/// The pull executor: one ThreadPool::run that sweeps every vertex of
/// `backward` whose bit in `done` is clear (sweep_unvisited_words; pass
/// NothingDone for all of them), less its degree-0 vertices that `delta`
/// (may be null) gives no inserts. Worker w calls make_visitor(w) once, and
/// on the visitor V it returns calls
///   V(read, word, pending) -> std::int64_t
///       for every swept word with survivors, where bit i of `pending` is
///       vertex 64 * word + i, all owned by read.partition. V returns the
///       vertices it claimed. Each survivor goes to exactly one worker per
///       sweep, so V writes per-vertex state with plain stores; a bitmap
///       word that two chunks share still needs an atomic OR.
///   V.end_partition(read)
///       once after each partition the worker took chunks of, its home
///       or another it helped with, when V declares it; the place to fold
///       the visitor's own counters.
/// `read` is that worker's PullReader. Each worker folds its counts into
/// the result once. Device faults on a hybrid backward graph propagate as
/// exceptions.
template <typename Done, typename MakeVisitor>
PullResult pull_sweep(const BackwardStorage& backward,
                      const DeltaBuffer* delta, const Done& done,
                      const NumaTopology& topology, ThreadPool& pool,
                      std::int64_t chunk, MakeVisitor&& make_visitor) {
  SEMBFS_EXPECTS(chunk >= 1);
  return visit_graph(backward, [&](auto& graph) {
    return detail::pull_over(graph, delta, done, topology, pool, chunk,
                             make_visitor);
  });
}

/// One bottom-up BFS level: pull_sweep over the unvisited vertices with
/// the BFS word kernel, which ORs its claims into the next frontier bitmap.
/// `chunk` is the sweep's work-stealing slice.
StepResult bottom_up_step(const BackwardStorage& backward, BfsStatus& status,
                          std::int32_t level, const NumaTopology& topology,
                          ThreadPool& pool, std::int64_t chunk = kPullChunk,
                          const DeltaBuffer* delta = nullptr);

}  // namespace sembfs
