// BFS status data (paper Step 3: "queues, bitmaps for BFS status memories,
// and trees for search results").
//
//  - parent: the BFS tree, -1 = unvisited (Graph500 convention).
//  - level:  depth at which each vertex was claimed (validation needs it).
//  - visited bitmap: fast unvisited sweep for the bottom-up step, which
//    claims a word's vertices together (claim_bottom_up_word).
//  - frontier: an engine::ActiveSet — the current level's membership
//    bitmap (it answers bottom-up's "v in frontier?"), the next level's
//    bitmap that every step ORs its claims into, and, on demand, the
//    ascending vertex queue that drives top-down dequeueing (see
//    engine/active_set.hpp).
//
// ## Claim memory-ordering contract
//
// The parent array is plain Vertex storage. Inside a parallel region every
// access to it goes through std::atomic_ref<Vertex>. Plain accesses —
// reset(), the hand-off (take_tree) and the mid-search copy
// (parent_snapshot) — happen only outside parallel regions, ordered
// against the kernels' atomic ones by the ThreadPool::run() join that ends
// each region.
//
//  - claim(): multi-writer CAS (acq_rel). Top-down workers race for the
//    same destination vertex; exactly one wins, and the level/visited
//    writes of the winner are ordered behind the CAS.
//  - claim_bottom_up_word(): single-writer word claim, no CAS. Valid ONLY
//    under the bottom-up sweep's ownership discipline: each unvisited
//    vertex is swept by exactly one worker per level, so there is nothing
//    to race with. It writes each claimed vertex's level (a plain store)
//    and parent (a release store), then sets the word's claimed
//    visited bits with ONE relaxed fetch_or. The OR stays atomic: a chunk
//    boundary that is not word-aligned leaves one visited word shared by
//    two workers, each owning the bits of its own chunk. Cross-thread
//    visibility of the claim is established by the level-ending
//    ThreadPool::run() join, NOT by the stores: within the level no other
//    worker reads these vertices' parent/level state, other workers'
//    visited-word loads mask these bits out, and every later reader is
//    ordered behind the join.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/active_set.hpp"
#include "graph/types.hpp"
#include "util/bitmap.hpp"

namespace sembfs {

class ThreadPool;

// ## Status-slot reuse contract
//
// A BfsStatus is sized once (the parent/level arrays and bitmaps are the
// dominant per-search allocation) and reused across searches: reset(root)
// restores every field to its post-construction state for a new root, so
// a pool of BfsStatus "slots" can serve an unbounded query stream
// (src/serve's StatusSlotPool). Reuse is only valid strictly one search at
// a time per slot — reset() is not thread-safe against a session still
// stepping on the same status, and a released slot must not be read again
// (its parent/level data belongs to the next query).
//
// A finished search hands its parent and level arrays over whole
// (take_tree: two vector moves, no copy) to its BfsResult, and the next
// reset() re-creates them with one assign each. The bitmaps stay. In
// steady state the allocator hands the re-created arrays the blocks of a
// result freed since, so the hand-off costs no page faults either.
class BfsStatus {
 public:
  explicit BfsStatus(Vertex vertex_count);

  /// Re-initializes all state and seeds the frontier with `root` (see the
  /// status-slot reuse contract above), re-creating the parent and level
  /// arrays if a hand-off took them.
  void reset(Vertex root);

  [[nodiscard]] Vertex vertex_count() const noexcept { return n_; }

  /// Attempts to claim w with parent v at `level`; true iff we won.
  /// Multi-writer safe (top-down workers race per destination).
  bool claim(Vertex w, Vertex v, std::int32_t level) noexcept {
    Vertex expected = kNoVertex;
    if (std::atomic_ref<Vertex>{parent_[static_cast<std::size_t>(w)]}
            .compare_exchange_strong(expected, v, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
      level_[static_cast<std::size_t>(w)] = level;
      visited_.set(static_cast<std::size_t>(w));
      return true;
    }
    return false;
  }

  /// Word-level single-writer claim for the bottom-up sweep: claims every
  /// vertex 64 * word + b whose bit b is set in `claims`, with parent
  /// parents[b] at `level`, and sets their visited bits with one relaxed
  /// fetch_or. The caller must own every claimed vertex this level and
  /// find each unclaimed (see the memory-ordering contract in the file
  /// comment).
  void claim_bottom_up_word(std::size_t word, std::uint64_t claims,
                            std::span<const Vertex, 64> parents,
                            std::int32_t level) noexcept {
    for_each_set_in_word(claims, 0, [&](std::size_t b) {
      const std::size_t w = word * 64 + b;
      const std::atomic_ref<Vertex> parent{parent_[w]};
      SEMBFS_ASSERT(parent.load(std::memory_order_relaxed) == kNoVertex);
      level_[w] = level;
      parent.store(parents[b], std::memory_order_release);
    });
    visited_.or_word(word, claims);
  }

  [[nodiscard]] bool is_visited(Vertex w) const noexcept {
    return visited_.test(static_cast<std::size_t>(w));
  }
  [[nodiscard]] bool in_frontier(Vertex v) const noexcept {
    return active_.contains(v);
  }

  [[nodiscard]] Vertex parent(Vertex w) const noexcept {
    // atomic_ref needs a non-const object (C++20); the load writes nothing.
    return std::atomic_ref<Vertex>{
        const_cast<Vertex&>(parent_[static_cast<std::size_t>(w)])}
        .load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int32_t level(Vertex w) const noexcept {
    return level_[static_cast<std::size_t>(w)];
  }

  /// The frontier as a reusable engine ActiveSet — what the vertex-program
  /// engine steps against when running BFS over this status block.
  [[nodiscard]] engine::ActiveSet& active_set() noexcept { return active_; }
  [[nodiscard]] const engine::ActiveSet& active_set() const noexcept {
    return active_;
  }

  /// The frontier as an ascending vertex queue — what top-down steps
  /// dequeue. Extracted from the frontier bitmap at most once per level.
  [[nodiscard]] const std::vector<Vertex>& frontier_queue(ThreadPool& pool) {
    return active_.queue(pool);
  }
  /// Frontier membership bitmap.
  [[nodiscard]] const Bitmap& frontier_bitmap() const noexcept {
    return active_.bitmap();
  }
  /// The next frontier: each step sets its claims here with
  /// Bitmap::set_atomic or Bitmap::or_word_atomic.
  [[nodiscard]] Bitmap& next_frontier() noexcept { return active_.next_bitmap(); }
  /// The visited bitmap, exposed for the word-skip sweep (word() loads).
  [[nodiscard]] const AtomicBitmap& visited_bitmap() const noexcept {
    return visited_;
  }
  [[nodiscard]] std::int64_t frontier_size() const noexcept {
    return active_.size();
  }

  /// Promotes next -> frontier and empties the next frontier.
  void advance(ThreadPool& pool) { active_.advance(pool); }

  /// Copies the parent array (a mid-search snapshot).
  [[nodiscard]] std::vector<Vertex> parent_snapshot() const {
    return parent_;
  }
  /// The level array (copy it for a mid-search snapshot).
  [[nodiscard]] const std::vector<std::int32_t>& levels() const noexcept {
    return level_;
  }

  /// The hand-off of a finished search's tree: moves the parent and level
  /// arrays into `parent` and `level`, leaving the status without them
  /// until the next reset(). Call outside parallel regions only.
  void take_tree(std::vector<Vertex>& parent,
                 std::vector<std::int32_t>& level) noexcept {
    parent = std::exchange(parent_, {});
    level = std::exchange(level_, {});
  }
  /// False between take_tree() and the next reset().
  [[nodiscard]] bool holds_tree() const noexcept { return !parent_.empty(); }

  [[nodiscard]] std::int64_t visited_count() const noexcept {
    return static_cast<std::int64_t>(visited_.count());
  }

  /// DRAM footprint of all status structures, in bytes.
  [[nodiscard]] std::uint64_t byte_size() const noexcept;

 private:
  static_assert(std::atomic_ref<Vertex>::required_alignment <=
                alignof(Vertex));

  Vertex n_ = 0;
  std::vector<Vertex> parent_;
  std::vector<std::int32_t> level_;
  AtomicBitmap visited_;
  engine::ActiveSet active_;
};

}  // namespace sembfs
