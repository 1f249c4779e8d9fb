// The bottom-up BFS step (paper Figure 2), NUMA-aware and word-parallel.
//
// Each emulated NUMA node's team sweeps the *unvisited* vertices of its own
// vertex range against its backward partition (complete adjacency lists),
// terminating each vertex's scan at the first neighbor found in the
// frontier — the early-exit that makes the bottom-up direction cheap when
// the frontier is large.
//
// The unvisited sweep is word-parallel: workers load 64 vertices' visited
// bits at a time, mask out the backward graph's degree-0 vertices (no
// frontier reaches them; not while a delta is attached, whose inserts
// may), and skip words with no survivors outright (on late levels nearly
// every word is saturated, so most of the vertex range costs one load +
// compare per 64 vertices), iterating survivors via countr_zero. Each
// claim also adds the vertex's full degree to StepResult::claimed_degrees,
// read from the index the scan just used.
// Claims use BfsStatus::claim_bottom_up — a single-writer release store,
// no CAS — because each unvisited vertex is swept by exactly one worker
// per level.
//
// One kernel serves both backward storages: it dispatches on the backward
// side once per call and reads each vertex's in-neighbors through the
// partition's visit_neighbors overload (graph/graph_storage.hpp) — a DRAM
// span, or the first k edges from DRAM and the rest streamed from
// simulated NVM (paper Section VI-E / Figure 14).
//
// It emits the next frontier in either representation (see
// bfs_status.hpp): Queue (per-worker vectors, merged) or Bitmap
// (per-worker bitmaps, OR-merged word-wise by advance()). The session
// picks per level; Bitmap avoids the queue round-trip entirely on the
// wide steady-state levels that dominate hybrid BFS time.
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
