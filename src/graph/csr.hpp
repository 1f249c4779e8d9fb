// CSR (Compressed Sparse Row) adjacency storage — the Step 2 output of the
// Graph500 benchmark (paper Figure 5).
//
// A Csr instance covers a *source range* of the vertex space and may filter
// by a *destination range*. This one abstraction backs all four graph
// shapes in the paper:
//   - the whole graph:        sources = all, destinations = all
//   - a forward partition:    sources = all, destinations = one NUMA node
//     ("vertices in neighbors are divided based on the NUMA node, and
//      vertices in the frontier are duplicated across the NUMA node")
//   - a backward partition:   sources = one NUMA node, destinations = all
//     ("unvisited vertices to search are straightforwardly divided")
// The index array is local to the source range; neighbors() takes global
// vertex IDs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "numa/partition.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs {

/// An edge source that can be streamed multiple times: each call to the
/// outer function must deliver every edge of the graph (in batches) to the
/// provided sink exactly once. ExternalEdgeList::for_each_batch wraps
/// naturally; an in-DRAM edge list is a stream of one batch
/// (one_batch_stream).
using EdgeStream =
    std::function<void(const std::function<void(std::span<const Edge>)>&)>;

/// `edges` as a stream that hands its whole span to the sink once. The
/// stream borrows the list's storage.
[[nodiscard]] EdgeStream one_batch_stream(const EdgeList& edges);

/// Every build is undirected (both directions of each edge are inserted)
/// and drops self loops, which contribute nothing to BFS.
struct CsrBuildOptions {
  /// Sort each adjacency list ascending (canonical order for comparisons).
  /// BackwardGraph builds then reorder their lists hub-first.
  bool sort_neighbors = false;
};

class Csr {
 public:
  Csr() = default;

  [[nodiscard]] Vertex global_vertex_count() const noexcept { return n_; }
  [[nodiscard]] VertexRange source_range() const noexcept { return sources_; }
  [[nodiscard]] VertexRange destination_range() const noexcept {
    return destinations_;
  }
  /// Number of stored adjacency entries (directed half-edges).
  [[nodiscard]] std::int64_t entry_count() const noexcept {
    return static_cast<std::int64_t>(values_.size());
  }

  [[nodiscard]] bool covers_source(Vertex v) const noexcept {
    return sources_.contains(v);
  }

  /// Out-degree of global vertex v (v must lie in the source range).
  [[nodiscard]] std::int64_t degree(Vertex v) const noexcept {
    const std::int64_t i = v - sources_.begin;
    return index_[i + 1] - index_[i];
  }

  /// Adjacency list of global vertex v.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    const std::int64_t i = v - sources_.begin;
    return std::span<const Vertex>{values_}.subspan(
        static_cast<std::size_t>(index_[i]),
        static_cast<std::size_t>(index_[i + 1] - index_[i]));
  }

  [[nodiscard]] const std::vector<std::int64_t>& index() const noexcept {
    return index_;
  }
  [[nodiscard]] const std::vector<Vertex>& values() const noexcept {
    return values_;
  }

  /// DRAM footprint of the arrays, in bytes.
  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return index_.size() * sizeof(std::int64_t) +
           values_.size() * sizeof(Vertex);
  }

  /// Reorders every adjacency list ascending by rank[u], where `rank` is a
  /// permutation of [0, global_vertex_count()) and `by_rank` its inverse
  /// (by_rank[rank[u]] == u). Lists then no longer depend on the order the
  /// build's parallel scatter wrote them in.
  void order_neighbors_by_rank(std::span<const Vertex> rank,
                               std::span<const Vertex> by_rank,
                               ThreadPool& pool);

  /// Reassembles a CSR from its raw parts (deserialization / tools).
  /// Validates the index array's shape and monotonicity.
  static Csr from_parts(Vertex global_vertex_count, VertexRange sources,
                        VertexRange destinations,
                        std::vector<std::int64_t> index,
                        std::vector<Vertex> values);

  friend Csr build_csr_filtered(Vertex vertex_count, const EdgeStream& stream,
                                VertexRange sources, VertexRange destinations,
                                const CsrBuildOptions& options,
                                ThreadPool& pool);

 private:
  Vertex n_ = 0;
  VertexRange sources_;
  VertexRange destinations_;
  std::vector<std::int64_t> index_;  // sources_.size() + 1 entries
  std::vector<Vertex> values_;
};

/// Builds a CSR over `sources`, keeping only adjacency entries whose
/// destination lies in `destinations` — the paper's Step 2 ("construct the
/// forward graph on DRAM by directly reading the edge list from NVM").
/// Streams the edges twice (count pass, fill pass); only O(vertices +
/// output) DRAM is used beyond the batches.
Csr build_csr_filtered(Vertex vertex_count, const EdgeStream& stream,
                       VertexRange sources, VertexRange destinations,
                       const CsrBuildOptions& options, ThreadPool& pool);

inline Csr build_csr_filtered(const EdgeList& edges, VertexRange sources,
                              VertexRange destinations,
                              const CsrBuildOptions& options,
                              ThreadPool& pool) {
  return build_csr_filtered(edges.vertex_count(), one_batch_stream(edges),
                            sources, destinations, options, pool);
}

/// Whole-graph CSR.
inline Csr build_csr(const EdgeList& edges, const CsrBuildOptions& options,
                     ThreadPool& pool) {
  const VertexRange all{0, edges.vertex_count()};
  return build_csr_filtered(edges, all, all, options, pool);
}

}  // namespace sembfs
