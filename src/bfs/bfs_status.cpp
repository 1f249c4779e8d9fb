#include "bfs/bfs_status.hpp"

#include "util/contracts.hpp"

namespace sembfs {

BfsStatus::BfsStatus(Vertex vertex_count)
    : n_(vertex_count),
      parent_(static_cast<std::size_t>(vertex_count), kNoVertex),
      level_(static_cast<std::size_t>(vertex_count), -1),
      visited_(static_cast<std::size_t>(vertex_count)),
      active_(vertex_count) {
  SEMBFS_EXPECTS(vertex_count >= 1);
}

void BfsStatus::reset(Vertex root) {
  SEMBFS_EXPECTS(root >= 0 && root < n_);
  // After a hand-off the arrays are empty and assign() re-creates them;
  // otherwise it refills them in place.
  const auto n = static_cast<std::size_t>(n_);
  parent_.assign(n, kNoVertex);
  level_.assign(n, -1);
  visited_.clear();
  active_.seed(root);

  parent_[static_cast<std::size_t>(root)] = root;
  level_[static_cast<std::size_t>(root)] = 0;
  visited_.set(static_cast<std::size_t>(root));
}

std::uint64_t BfsStatus::byte_size() const noexcept {
  const auto n = static_cast<std::uint64_t>(n_);
  return n * sizeof(Vertex)          // parent
         + n * sizeof(std::int32_t)  // level
         + (n + 7) / 8               // visited bitmap
         + active_.byte_size();      // frontier bitmaps and queue
}

}  // namespace sembfs
