#include "numa/partition.hpp"

#include <limits>

namespace sembfs {

VertexPartition::VertexPartition(std::int64_t vertex_count, std::size_t nodes)
    : n_(vertex_count) {
  SEMBFS_EXPECTS(vertex_count >= 0);
  SEMBFS_EXPECTS(nodes >= 1);
  // node_of() and the bounds below multiply a vertex count by the node
  // count in 64 bits (vertex IDs are 48-bit, see PackedEdge).
  const auto n = static_cast<std::uint64_t>(vertex_count);
  SEMBFS_EXPECTS(n <= std::numeric_limits<std::uint64_t>::max() / nodes);
  bounds_.resize(nodes + 1);
  for (std::size_t k = 0; k <= nodes; ++k)
    bounds_[k] = static_cast<std::int64_t>(n * k / nodes);
}

}  // namespace sembfs
