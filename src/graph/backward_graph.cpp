#include "graph/backward_graph.hpp"

#include <utility>

#include "graph/relabel.hpp"
#include "parallel/parallel_for.hpp"

namespace sembfs {

BackwardGraph BackwardGraph::build(Vertex vertex_count,
                                   const EdgeStream& stream,
                                   const VertexPartition& partition,
                                   const CsrBuildOptions& options,
                                   ThreadPool& pool) {
  BackwardGraph bg;
  bg.vertex_partition_ = partition;
  const VertexRange all{0, vertex_count};
  bg.partitions_.reserve(partition.node_count());
  for (std::size_t k = 0; k < partition.node_count(); ++k) {
    bg.partitions_.push_back(build_csr_filtered(
        vertex_count, stream, partition.range_of(k), all, options, pool));
  }
  bg.order_hub_first(pool);
  return bg;
}

void BackwardGraph::order_hub_first(ThreadPool& pool) {
  const Vertex n = vertex_count();
  std::vector<std::int64_t> degree(static_cast<std::size_t>(n));
  parallel_for(pool, 0, n, [&](std::int64_t v) {
    degree[static_cast<std::size_t>(v)] =
        static_cast<std::int64_t>(neighbors(v).size());
  });

  degree_zero_.resize(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v)
    if (degree[static_cast<std::size_t>(v)] == 0)
      degree_zero_.set(static_cast<std::size_t>(v));

  const std::vector<Vertex> by_rank = degree_order(degree, pool);
  std::vector<Vertex> rank = std::move(degree);  // reuse the storage
  parallel_for(pool, 0, n, [&](std::int64_t r) {
    rank[static_cast<std::size_t>(by_rank[static_cast<std::size_t>(r)])] = r;
  });
  for (Csr& part : partitions_)
    part.order_neighbors_by_rank(rank, by_rank, pool);

  hubs_.resize(static_cast<std::size_t>(n));
  parallel_for(pool, 0, n, [&](std::int64_t v) {
    const std::span<const Vertex> adj = neighbors(v);
    hubs_[static_cast<std::size_t>(v)] = adj.empty() ? kNoVertex : adj[0];
  });
}

std::int64_t BackwardGraph::entry_count() const noexcept {
  std::int64_t total = 0;
  for (const auto& p : partitions_) total += p.entry_count();
  return total;
}

std::uint64_t BackwardGraph::byte_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p.byte_size();
  return total;
}

std::uint64_t BackwardGraph::summary_byte_size() const noexcept {
  return hubs_.size() * sizeof(Vertex) +
         degree_zero_.word_count() * sizeof(std::uint64_t);
}

}  // namespace sembfs
