#include "graph/forward_graph.hpp"

namespace sembfs {

ForwardGraph ForwardGraph::build(Vertex vertex_count,
                                 const EdgeStream& stream,
                                 const VertexPartition& partition,
                                 const CsrBuildOptions& options,
                                 ThreadPool& pool) {
  ForwardGraph fg;
  fg.vertex_partition_ = partition;
  const VertexRange all{0, vertex_count};
  fg.partitions_.reserve(partition.node_count());
  for (std::size_t k = 0; k < partition.node_count(); ++k) {
    fg.partitions_.push_back(build_csr_filtered(
        vertex_count, stream, all, partition.range_of(k), options, pool));
  }
  return fg;
}

std::int64_t ForwardGraph::entry_count() const noexcept {
  std::int64_t total = 0;
  for (const auto& p : partitions_) total += p.entry_count();
  return total;
}

std::uint64_t ForwardGraph::byte_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p.byte_size();
  return total;
}

}  // namespace sembfs
