// Block partitioning of the vertex ID space over emulated NUMA nodes.
//
// Paper, Section V-B-2: vertex v_i with i in [k*n/l, (k+1)*n/l) is assigned
// to NUMA node N_k. Both CSR graphs, the visited bitmap and the BFS tree
// use this mapping so that each node's threads only write node-local state.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "util/contracts.hpp"

namespace sembfs {

/// Half-open vertex range [begin, end).
struct VertexRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  [[nodiscard]] std::int64_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool contains(std::int64_t v) const noexcept {
    return v >= begin && v < end;
  }
  friend bool operator==(const VertexRange&, const VertexRange&) = default;
};

class VertexPartition {
 public:
  VertexPartition() = default;
  /// Partitions [0, vertex_count) into `nodes` contiguous blocks.
  VertexPartition(std::int64_t vertex_count, std::size_t nodes);

  [[nodiscard]] std::int64_t vertex_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return bounds_.empty() ? 0 : bounds_.size() - 1;
  }

  /// Node owning vertex v: the k with floor(k*n/l) <= v <
  /// floor((k+1)*n/l), which is exactly (l*(v+1) - 1) / n. The
  /// constructor checks that n*l fits in 64 bits, so this is one multiply
  /// and one 64-bit divide, with no boundary correction.
  [[nodiscard]] std::size_t node_of(std::int64_t v) const noexcept {
    SEMBFS_ASSERT(v >= 0 && v < n_);
    const std::uint64_t l = node_count();
    return static_cast<std::size_t>(
        (l * (static_cast<std::uint64_t>(v) + 1) - 1) /
        static_cast<std::uint64_t>(n_));
  }

  /// Vertex range owned by `node`.
  [[nodiscard]] VertexRange range_of(std::size_t node) const noexcept {
    SEMBFS_ASSERT(node < node_count());
    return {bounds_[node], bounds_[node + 1]};
  }

  /// Offset of v within its node's block.
  [[nodiscard]] std::int64_t local_index(std::int64_t v) const noexcept {
    return v - bounds_[node_of(v)];
  }

  [[nodiscard]] const std::vector<std::int64_t>& bounds() const noexcept {
    return bounds_;
  }

 private:
  std::int64_t n_ = 0;
  std::vector<std::int64_t> bounds_;  // node_count+1 entries, 0 .. n
};

}  // namespace sembfs
