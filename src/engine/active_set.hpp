// ActiveSet: the vertex set that drives one superstep of any vertex-centric
// program — the BFS frontier, generalized so the same machinery serves
// BFS, label propagation, and every future program.
//
// ## One representation
//
// The set is a pair of n-bit bitmaps: the CURRENT set, which pull
// (bottom-up) steps test with contains(), and the NEXT set, into which
// every push and pull step ORs its activations with relaxed atomic ORs
// (Bitmap::set_atomic, or Bitmap::or_word_atomic for a word of claims).
// advance() swaps the two, popcounts the new current set and clears the
// old one for reuse, so the set costs 2n bits whatever the worker count.
//
// Push (top-down) steps dequeue a vertex list. queue(pool) extracts it from
// the current bitmap on demand, ascending by vertex id, at most once per
// superstep.
//
// BfsStatus composes an ActiveSet as its frontier.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "util/bitmap.hpp"

namespace sembfs {
class ThreadPool;
}  // namespace sembfs

namespace sembfs::engine {

class ActiveSet {
 public:
  explicit ActiveSet(Vertex vertex_count);

  [[nodiscard]] Vertex vertex_count() const noexcept { return n_; }

  /// Empties both sets (a run abandoned mid-superstep can leave the next
  /// one populated) and activates exactly `v`.
  void seed(Vertex v);
  /// Empties both sets and activates every vertex in [0, vertex_count()) —
  /// the common seeding of fixpoint programs (label propagation starts
  /// everywhere).
  void seed_all();

  /// Membership test against the CURRENT set.
  [[nodiscard]] bool contains(Vertex v) const noexcept {
    return bits_.test(static_cast<std::size_t>(v));
  }
  /// Membership bitmap of the current set.
  [[nodiscard]] const Bitmap& bitmap() const noexcept { return bits_; }
  [[nodiscard]] std::int64_t size() const noexcept { return count_; }

  /// The current set as a vertex list sorted ascending — what push steps
  /// dequeue. Extracted from the bitmap on the first call of a superstep
  /// (in parallel on `pool` above a small size) and reused until advance().
  [[nodiscard]] const std::vector<Vertex>& queue(ThreadPool& pool);

  /// The next set. Step writers may race on a word, so they write only
  /// through Bitmap::set_atomic and Bitmap::or_word_atomic; nothing reads it
  /// before the step's parallel region has joined.
  [[nodiscard]] Bitmap& next_bitmap() noexcept { return next_; }

  /// Promotes next -> current: swaps the bitmaps, counts the new current
  /// set and clears the old one, which becomes the (empty) next set.
  void advance(ThreadPool& pool);

  /// DRAM footprint of the set's structures, in bytes.
  [[nodiscard]] std::uint64_t byte_size() const noexcept;

 private:
  void clear();

  Vertex n_ = 0;
  Bitmap bits_;
  Bitmap next_;
  std::vector<Vertex> queue_;
  /// queue_ lists the current set (false until queue() extracts it).
  bool queue_valid_ = false;
  std::int64_t count_ = 0;
};

}  // namespace sembfs::engine
