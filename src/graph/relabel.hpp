// Degree-ordered vertex relabeling, after Yasui et al. (IEEE BigData'13 —
// the paper's reference [10], the NETAL implementation the offload builds
// on). Renumbering vertices in decreasing-degree order packs the hubs into
// a small dense ID prefix: frontier bitmaps for the (hub-dominated) early
// bottom-up levels fit in a few cache lines, and adjacency lists become
// more sequential. The mapping is a bijection, so BFS results translate
// back exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs {

struct Relabeling {
  /// new_id[old] = rank of `old` in decreasing-degree order.
  std::vector<Vertex> new_id;
  /// old_id[new] — the inverse permutation.
  std::vector<Vertex> old_id;

  [[nodiscard]] Vertex to_new(Vertex old_vertex) const noexcept {
    return new_id[static_cast<std::size_t>(old_vertex)];
  }
  [[nodiscard]] Vertex to_old(Vertex new_vertex) const noexcept {
    return old_id[static_cast<std::size_t>(new_vertex)];
  }

  /// Translates a per-new-vertex array (levels, parents) back to the
  /// original ID space; parent VALUES are translated too when
  /// `values_are_vertices`.
  std::vector<Vertex> restore_vertex_array(
      std::span<const Vertex> by_new_id, bool values_are_vertices) const;
  std::vector<std::int32_t> restore_level_array(
      std::span<const std::int32_t> by_new_id) const;
};

/// The vertices of [0, degree.size()) in decreasing-degree order, ties
/// broken by ascending ID: order[r] is the vertex of rank r. This one total
/// order is behind both the relabeling below and the backward graph's
/// hub-first adjacency lists (graph/backward_graph.hpp). Sorts one run per
/// pool worker and merges the runs pairwise on the pool.
std::vector<Vertex> degree_order(std::span<const std::int64_t> degree,
                                 ThreadPool& pool);

/// Builds the decreasing-degree relabeling for `edges` (ties broken by
/// original ID for determinism).
Relabeling degree_order_relabeling(const EdgeList& edges, ThreadPool& pool);

/// Applies a relabeling to an edge list (returns the renamed copy).
EdgeList apply_relabeling(const EdgeList& edges, const Relabeling& map);

}  // namespace sembfs
