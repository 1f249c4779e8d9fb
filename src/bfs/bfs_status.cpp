#include "bfs/bfs_status.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace sembfs {

BfsStatus::BfsStatus(Vertex vertex_count)
    : n_(vertex_count),
      parent_(static_cast<std::size_t>(vertex_count)),
      level_(static_cast<std::size_t>(vertex_count), -1),
      visited_(static_cast<std::size_t>(vertex_count)),
      active_(vertex_count) {
  SEMBFS_EXPECTS(vertex_count >= 1);
}

void BfsStatus::reset(Vertex root) {
  SEMBFS_EXPECTS(root >= 0 && root < n_);
  for (auto& p : parent_) p.store(kNoVertex, std::memory_order_relaxed);
  std::fill(level_.begin(), level_.end(), -1);
  visited_.clear();
  active_.seed(root);

  parent_[static_cast<std::size_t>(root)].store(root,
                                                std::memory_order_relaxed);
  level_[static_cast<std::size_t>(root)] = 0;
  visited_.set(static_cast<std::size_t>(root));
}

std::vector<Vertex> BfsStatus::parent_snapshot() const {
  std::vector<Vertex> out(parent_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i)
    out[i] = parent_[i].load(std::memory_order_relaxed);
  return out;
}

std::uint64_t BfsStatus::byte_size() const noexcept {
  const auto n = static_cast<std::uint64_t>(n_);
  return n * sizeof(Vertex)          // parent
         + n * sizeof(std::int32_t)  // level
         + (n + 7) / 8               // visited bitmap
         + active_.byte_size();      // frontier bitmaps and queue
}

}  // namespace sembfs
