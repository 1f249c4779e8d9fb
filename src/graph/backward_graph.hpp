// The backward graph: per-NUMA-node CSR partitions used by the bottom-up
// direction (paper Section IV-A / Figure 6, right).
//
// Partition k holds only the source vertices of node k's range — the
// *unvisited* vertices that node's threads sweep — with their complete
// adjacency lists, so a bottom-up sweep touches only node-local memory.
//
// Every in-neighbor list is hub-first: ordered by one total order over the
// vertices, full degree descending, then vertex ID (degree_order in
// graph/relabel.hpp). The bottom-up early exit stops at the first frontier
// neighbor, and hubs join the frontier first, so the search ends sooner;
// the first k edges a hybrid backward graph keeps in DRAM are each
// vertex's hub edges. Vertex IDs are not renumbered.
//
// The build also records two dense summary arrays, n × 8 B plus n / 8 B of
// DRAM beyond the CSR arrays (summary_byte_size):
//  - the hub array: each vertex's first in-neighbor, kNoVertex for degree
//    0. The bottom-up kernel probes it for 64 vertices at a time and reads
//    a list only when its hub is not in the frontier;
//  - the degree-0 mask: the sweep skips these vertices, since no frontier
//    can reach them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "numa/partition.hpp"
#include "util/bitmap.hpp"

namespace sembfs {

class BackwardGraph {
 public:
  BackwardGraph() = default;

  /// Builds one source-filtered CSR per partition node, streaming the
  /// edges twice per node (paper Step 2), then orders every list hub-first.
  static BackwardGraph build(Vertex vertex_count, const EdgeStream& stream,
                             const VertexPartition& partition,
                             const CsrBuildOptions& options, ThreadPool& pool);

  static BackwardGraph build(const EdgeList& edges,
                             const VertexPartition& partition,
                             const CsrBuildOptions& options, ThreadPool& pool) {
    return build(edges.vertex_count(), one_batch_stream(edges), partition,
                 options, pool);
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return partitions_.size();
  }
  [[nodiscard]] const Csr& partition(std::size_t node) const noexcept {
    return partitions_[node];
  }
  [[nodiscard]] const VertexPartition& vertex_partition() const noexcept {
    return vertex_partition_;
  }
  [[nodiscard]] Vertex vertex_count() const noexcept {
    return vertex_partition_.vertex_count();
  }

  /// Adjacency list of global vertex v (routed to the owning partition).
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return partitions_[vertex_partition_.node_of(v)].neighbors(v);
  }

  /// Bit v is set when v has no neighbors (n bits).
  [[nodiscard]] const Bitmap& degree_zero() const noexcept {
    return degree_zero_;
  }
  /// Entry v is v's hub, the first entry of its hub-first list, or
  /// kNoVertex when v has no neighbors (n entries).
  [[nodiscard]] std::span<const Vertex> hubs() const noexcept {
    return hubs_;
  }

  [[nodiscard]] std::int64_t entry_count() const noexcept;
  /// DRAM bytes of the CSR arrays (what GraphSizeModel predicts).
  [[nodiscard]] std::uint64_t byte_size() const noexcept;
  /// DRAM bytes of the hub array and the degree-0 mask.
  [[nodiscard]] std::uint64_t summary_byte_size() const noexcept;

 private:
  /// Sorts every list hub-first and records degree_zero_ and hubs_.
  void order_hub_first(ThreadPool& pool);

  VertexPartition vertex_partition_;
  std::vector<Csr> partitions_;
  Bitmap degree_zero_;
  std::vector<Vertex> hubs_;
};

}  // namespace sembfs
