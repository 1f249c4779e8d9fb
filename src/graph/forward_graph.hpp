// The forward graph: per-NUMA-node CSR partitions used by the top-down
// direction (paper Section IV-A / Figure 6, left).
//
// Partition k holds *all* source vertices but only the adjacency entries
// whose destination belongs to node k's vertex range. During a top-down
// level, the threads of node k scan the (duplicated) frontier and write
// only to node-local BFS state — the delegation scheme NETAL uses to keep
// writes NUMA-local.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "numa/partition.hpp"

namespace sembfs {

class ForwardGraph {
 public:
  ForwardGraph() = default;

  /// Builds one destination-filtered CSR per partition node, streaming
  /// the edges twice per node (paper Step 2).
  static ForwardGraph build(Vertex vertex_count, const EdgeStream& stream,
                            const VertexPartition& partition,
                            const CsrBuildOptions& options, ThreadPool& pool);

  static ForwardGraph build(const EdgeList& edges,
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

  /// Total adjacency entries across partitions (== directed edge count of
  /// the underlying graph after filtering).
  [[nodiscard]] std::int64_t entry_count() const noexcept;

  /// Total DRAM bytes across partitions.
  [[nodiscard]] std::uint64_t byte_size() const noexcept;

 private:
  VertexPartition vertex_partition_;
  std::vector<Csr> partitions_;
};

}  // namespace sembfs
