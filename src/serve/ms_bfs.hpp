// Batched multi-source BFS (MS-BFS) — the serving engine's headline
// kernel: up to 64 roots traversed in ONE search over the shared
// semi-external graph.
//
// Representation (the MS-BFS idea of Then et al., built on PR 4's
// word-parallel bitmap machinery): each vertex carries one std::uint64_t
// per status array, bit q describing query lane q —
//
//   seen[v]      lanes that have reached v at any level
//   frontier[v]  lanes whose current frontier contains v
//   next[v]      lanes claiming v this level (becomes frontier at advance)
//
// Every level is one run of the pull executor (pull_sweep in
// bfs/bottom_up.hpp) over the backward graph, with a lane-word gather as
// its visitor: for each vertex not yet covered (seen ⊉ live lanes), read
// its merged-view in-neighbors and OR their frontier words until the
// vertex is covered or the list ends. The word OR advances all 64 lanes at
// once, so one adjacency-list walk — and, on the hybrid backward graph,
// one NVM chunk fetch — serves the whole batch: the semi-external win
// amortized across tenants. The executor's done bitmap is a "covered"
// bitmap (all live lanes have seen the vertex), the MS-BFS analogue of the
// visited bitmap, so its word skip passes 64 covered vertices per load;
// the backward graph's degree-0 vertices are masked out unless a delta
// gives them inserted in-edges.
//
// Concurrency contract (same single-writer discipline as bottom_up):
// within a level, frontier[] is read-only, and each vertex's seen/next/
// level/parent entries are written only by the worker sweeping its chunk.
// The covered bitmap is the only cross-worker write (relaxed set, stale
// zeros tolerated). advance() between levels runs on the driver thread.
//
// Memory: 24 bytes/vertex for the three words, plus 4 bytes/vertex/lane
// for levels and (optionally) parents — a full 64-lane batch with parents
// costs ~536 bytes/vertex, so batches are sized by the engine, not
// unbounded (docs/SERVING.md).
//
// Lane lifecycle: lanes can be deactivated mid-search (per-query deadline
// or cancellation). A dead lane's bits stop gathering immediately — the
// live mask filters every OR — and its partial level array stays valid.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/cancel.hpp"
#include "bfs/hybrid_bfs.hpp"
#include "numa/topology.hpp"
#include "parallel/thread_pool.hpp"
#include "util/bitmap.hpp"

namespace sembfs::serve {

struct MsBfsConfig {
  /// Record per-lane parent trees (4 bytes/vertex/lane extra). Levels are
  /// always recorded; parents make results Graph500-validatable.
  bool record_parents = true;
};

class MsBfsBatch {
 public:
  static constexpr std::size_t kMaxBatch = 64;

  /// Starts a batch over `roots` (1..64 lanes; lane q = roots[q]). Uses
  /// the backward side of `storage` only — DRAM or hybrid — so it runs
  /// under every scenario, including external-forward ones.
  MsBfsBatch(const GraphStorage& storage, const NumaTopology& topology,
             ThreadPool& pool, std::span<const Vertex> roots,
             const MsBfsConfig& config = {});

  MsBfsBatch(const MsBfsBatch&) = delete;
  MsBfsBatch& operator=(const MsBfsBatch&) = delete;

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] bool done() const noexcept { return done_; }
  /// The level step() would execute next (1 after construction).
  [[nodiscard]] std::int32_t next_level() const noexcept { return level_; }

  /// Executes ONE level for every live lane. Returns true while any lane
  /// can continue. No-op after done().
  bool step();

  /// Removes lane q from the live set (deadline/cancel): its bits stop
  /// gathering from the next step on. Its recorded levels stay valid as a
  /// partial traversal. Must be called between steps (driver thread).
  void deactivate(std::size_t q) noexcept;
  [[nodiscard]] bool lane_live(std::size_t q) const noexcept {
    return (live_mask_ & (std::uint64_t{1} << q)) != 0;
  }

  // Per-lane results (valid mid-search as partial traversals).
  [[nodiscard]] Vertex root(std::size_t q) const noexcept {
    return roots_[q];
  }
  [[nodiscard]] const std::vector<std::int32_t>& levels(
      std::size_t q) const noexcept {
    return levels_[q];
  }
  /// Empty when record_parents is off.
  [[nodiscard]] const std::vector<Vertex>& parents(
      std::size_t q) const noexcept {
    return parents_[q];
  }
  [[nodiscard]] std::int64_t visited(std::size_t q) const noexcept {
    return visited_[q];
  }
  /// Deepest level at which lane q claimed a vertex.
  [[nodiscard]] std::int32_t depth(std::size_t q) const noexcept {
    return depth_[q];
  }

  // Whole-batch statistics.
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] std::int64_t scanned_edges() const noexcept {
    return scanned_edges_;
  }
  [[nodiscard]] std::int32_t levels_executed() const noexcept {
    return level_ - 1;
  }

 private:
  struct LaneGather;  // the level's pull_sweep visitor (ms_bfs.cpp)

  void advance(std::int64_t claimed_this_level);

  const GraphStorage storage_;
  // By value: callers may pass a temporary, and the batch outlives the
  // construction expression (same hazard for every session-lifetime class).
  NumaTopology topology_;
  ThreadPool& pool_;
  MsBfsConfig config_;

  std::size_t width_ = 0;
  std::uint64_t live_mask_ = 0;  ///< bit q set while lane q participates
  std::vector<Vertex> roots_;

  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
  AtomicBitmap covered_;  ///< seen[v] covers every live lane

  std::vector<std::vector<std::int32_t>> levels_;  ///< [lane][vertex]
  std::vector<std::vector<Vertex>> parents_;       ///< [lane][vertex]
  std::vector<std::int64_t> visited_;              ///< per lane
  std::vector<std::int32_t> depth_;                ///< per lane

  std::int32_t level_ = 1;
  bool done_ = false;
  double seconds_ = 0.0;
  std::int64_t scanned_edges_ = 0;
};

}  // namespace sembfs::serve
