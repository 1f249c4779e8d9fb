// In-DRAM delta buffer of edge insertions and deletions layered over the
// sealed CSR graphs — the log-structured write side of the mutable graph
// (docs/MUTATIONS.md).
//
// The base graphs (ForwardGraph / ExternalForwardGraph / BackwardGraph /
// HybridBackwardGraph) stay immutable; every mutation
// batch is folded into one immutable DeltaBuffer, and the traversal kernels
// read the *merged view*: base adjacency minus tombstoned pairs, plus the
// inserted neighbors. Edges are undirected (Graph500 semantics), so an op
// on (u, v) affects both endpoints' adjacency.
//
// Tombstone semantics (the contract the mutation differential sweep pins):
//  - remove(u, v) kills *every* base copy of the pair — the base CSRs
//    keep multi-edges, so Kronecker multi-edges are removed as a unit —
//    and cancels any insert of the pair earlier in the same op sequence.
//  - insert(u, v) adds one adjacency copy per op (multi-edges allowed,
//    matching the base representation).
//  - ops apply in order: remove-then-insert leaves the pair present exactly
//    once (the tombstone only filters *base* entries, never the surviving
//    inserts); insert-then-remove leaves it absent.
//
// Lookup cost: two bitmap tests for untouched vertices (the overwhelmingly
// common case — kernels pay O(1) per vertex until a mutation lands near
// it), a hash lookup plus binary searches for touched ones.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/types.hpp"
#include "numa/partition.hpp"
#include "util/bitmap.hpp"

namespace sembfs {

/// One edge mutation. Self-loops are rejected at build time (they
/// contribute nothing to BFS and the base builders drop them too).
struct EdgeOp {
  enum class Kind : std::uint8_t { Insert, Remove };
  Kind kind = Kind::Insert;
  Vertex u = 0;
  Vertex v = 0;

  static EdgeOp insert(Vertex u, Vertex v) noexcept {
    return {Kind::Insert, u, v};
  }
  static EdgeOp remove(Vertex u, Vertex v) noexcept {
    return {Kind::Remove, u, v};
  }
  friend bool operator==(const EdgeOp&, const EdgeOp&) = default;
};

class DeltaBuffer {
 public:
  /// Returns the number of copies of destination `w` in the *base*
  /// adjacency of `u` — needed so degree_adjustment() can subtract exactly
  /// the entries a tombstone hides. The mutable graph supplies this from
  /// its canonical DRAM backward graph.
  using BaseCountFn = std::function<std::int64_t(Vertex u, Vertex w)>;

  DeltaBuffer() = default;  ///< empty buffer over zero vertices

  /// Folds `ops` (applied in order) over a base graph with `vertex_count`
  /// vertices. Throws via contract violation on out-of-range endpoints or
  /// self-loops.
  static DeltaBuffer build(Vertex vertex_count, std::span<const EdgeOp> ops,
                           const BaseCountFn& base_count);

  [[nodiscard]] Vertex vertex_count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return per_vertex_.empty(); }
  /// Raw op counts (before cancellation), for stats/reporting.
  [[nodiscard]] std::size_t insert_ops() const noexcept { return insert_ops_; }
  [[nodiscard]] std::size_t remove_ops() const noexcept { return remove_ops_; }
  /// True when any pair carries a tombstone — the incremental BFS repair
  /// path only handles insertion-only deltas and recomputes otherwise.
  [[nodiscard]] bool has_deletes() const noexcept {
    return !removed_edges_.empty();
  }

  /// O(1): does any insert or tombstone touch v's adjacency?
  [[nodiscard]] bool touches(Vertex v) const noexcept {
    return !per_vertex_.empty() && touched_.test(static_cast<std::size_t>(v));
  }
  [[nodiscard]] bool has_inserts(Vertex v) const noexcept {
    return !per_vertex_.empty() &&
           has_inserts_.test(static_cast<std::size_t>(v));
  }
  /// has_inserts() for the 64 vertices of bitmap word w at once (bit i is
  /// vertex 64w + i) — what the word-at-a-time sweeps unmask and route
  /// around their hub probe. 0 for an empty buffer.
  [[nodiscard]] std::uint64_t inserts_word(std::size_t w) const noexcept {
    return per_vertex_.empty() ? 0 : has_inserts_.word(w);
  }

  /// Sorted inserted neighbors of v (with multiplicity). Empty span when
  /// nothing was inserted at v.
  [[nodiscard]] std::span<const Vertex> inserted(Vertex v) const noexcept;

  /// True when the pair (u, w) is tombstoned — every base copy is hidden.
  [[nodiscard]] bool edge_removed(Vertex u, Vertex w) const noexcept;

  /// Signed correction to v's base degree under the merged view:
  /// inserted copies minus tombstone-hidden base copies.
  [[nodiscard]] std::int64_t degree_adjustment(Vertex v) const noexcept;

  /// Canonical (u < v) inserted pairs, sorted, with multiplicity — the
  /// seed list for incremental BFS repair and compaction rebuilds.
  [[nodiscard]] const std::vector<Edge>& inserted_edges() const noexcept {
    return inserted_edges_;
  }
  /// Canonical (u < v) tombstoned pairs, sorted, unique.
  [[nodiscard]] const std::vector<Edge>& removed_edges() const noexcept {
    return removed_edges_;
  }

  /// Approximate DRAM footprint (docs/MUTATIONS.md memory math).
  [[nodiscard]] std::uint64_t byte_size() const noexcept;

  /// Merged-view adjacency: calls fn(w) for every base neighbor whose pair
  /// survives the tombstones, then for every inserted neighbor of v that
  /// lies in `destinations` — the destination filter mirrors the forward
  /// partitions, which only store node-local destinations. Pass the full
  /// range for unfiltered (backward / whole-graph) adjacency.
  template <typename Fn>
  void for_each_merged(Vertex v, std::span<const Vertex> base,
                       VertexRange destinations, Fn&& fn) const {
    if (!touches(v)) {
      for (const Vertex w : base) fn(w);
      return;
    }
    const VertexDelta& d = per_vertex_.at(v);
    if (d.removes.empty()) {
      for (const Vertex w : base) fn(w);
    } else {
      for (const Vertex w : base)
        if (!sorted_contains(d.removes, w)) fn(w);
    }
    for (const Vertex w : d.inserts)
      if (destinations.contains(w)) fn(w);
  }

  template <typename Fn>
  void for_each_merged(Vertex v, std::span<const Vertex> base,
                       Fn&& fn) const {
    for_each_merged(v, base, VertexRange{0, n_}, static_cast<Fn&&>(fn));
  }

 private:
  struct VertexDelta {
    std::vector<Vertex> inserts;  // sorted, with multiplicity
    std::vector<Vertex> removes;  // sorted, unique tombstones
    std::int64_t degree_adjust = 0;
  };

  static bool sorted_contains(const std::vector<Vertex>& sorted,
                              Vertex w) noexcept;

  Vertex n_ = 0;
  Bitmap touched_;      // insert or tombstone lands in v's adjacency
  Bitmap has_inserts_;  // at least one inserted neighbor at v
  Bitmap has_removes_;  // at least one tombstone at v
  std::unordered_map<Vertex, VertexDelta> per_vertex_;
  std::vector<Edge> inserted_edges_;
  std::vector<Edge> removed_edges_;
  std::size_t insert_ops_ = 0;
  std::size_t remove_ops_ = 0;
};

}  // namespace sembfs
