// The bottom-up BFS step (paper Figure 2), NUMA-aware and word-parallel.
//
// Each emulated NUMA node's team sweeps the *unvisited* vertices of its own
// vertex range against its backward partition (complete adjacency lists),
// terminating each vertex's scan at the first neighbor found in the
// frontier — the early-exit that makes the bottom-up direction cheap when
// the frontier is large.
//
// The kernel works a 64-vertex word at a time. The unvisited sweep
// (bfs/sweep.hpp) loads a word's visited bits and masks out the backward
// graph's degree-0 vertices (no frontier reaches them), less any a delta
// gives inserted in-neighbors; words with no survivors are skipped
// outright (on late levels nearly every word is saturated, so most of the
// vertex range costs one load + compare per 64 vertices). Each remaining
// word then takes two passes:
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
//  2. The misses. Each miss's list continues from its second entry (the
//     first for vertices that skipped the probe) through the partition's
//     visit_neighbors overload (graph/graph_storage.hpp): a DRAM span, or
//     the rest of the DRAM prefix and then the NVM tail streamed from
//     simulated NVM (paper Section VI-E / Figure 14). Delta inserts come
//     first, then the base list minus tombstones.
//
// The traversal is the one-vertex-at-a-time scan's: the same first
// frontier parent in storage order, the same scanned edges, the same
// levels. The word's claims are written with one
// BfsStatus::claim_bottom_up_word — parent and level per vertex, the
// visited bits with one relaxed fetch_or, no CAS, because each unvisited
// vertex is swept by exactly one worker per level. Each claim also adds
// the vertex's full degree to StepResult::claimed_degrees, read from the
// partition's index. The counter bfs.bottom_up.hub_claims counts the
// claims the probe decided.
//
// One kernel serves both backward storages: it dispatches on the backward
// side once per call.
//
// It emits the next frontier in either representation (see
// bfs_status.hpp): Queue (per-worker vectors, merged) or Bitmap
// (per-worker bitmaps, one OR per claimed word, OR-merged word-wise by
// advance()). The session picks per level; Bitmap avoids the queue
// round-trip entirely on the wide steady-state levels that dominate
// hybrid BFS time.
#pragma once

#include "bfs/bfs_status.hpp"
#include "bfs/top_down.hpp"  // StepResult
#include "graph/graph_storage.hpp"
#include "numa/topology.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs {

/// How a bottom-up step writes the next frontier into BfsStatus.
enum class BottomUpOutput {
  Queue,   ///< per-worker vectors -> set_next_merged (legacy shape)
  Bitmap,  ///< per-worker bitmaps -> word-wise merge in advance()
};

StepResult bottom_up_step(const BackwardStorage& backward, BfsStatus& status,
                          std::int32_t level, const NumaTopology& topology,
                          ThreadPool& pool, std::int64_t chunk = 1024,
                          BottomUpOutput output = BottomUpOutput::Queue,
                          const DeltaBuffer* delta = nullptr);

}  // namespace sembfs
