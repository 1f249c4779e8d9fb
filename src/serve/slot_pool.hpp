// Fixed pool of reusable BfsStatus slots for the serving engine.
//
// A BfsStatus for a SCALE-s graph is the dominant per-search allocation
// (parent + level arrays, three bitmaps — ~13 bytes/vertex), so allocating
// one per query would put a multi-megabyte allocation and page-fault storm
// on the serving hot path. The pool sizes `capacity` slots once; each
// single-query session borrows a slot for its lifetime and returns it on
// finalize, relying on the status-slot reuse contract in bfs_status.hpp
// (reset() restores post-construction state; one search at a time per
// slot; take what you need before release). A finished query's result
// takes the slot's parent and level arrays, and the slot's next reset()
// re-creates them.
//
// The pool's capacity is the engine's single-query concurrency limit:
// try_acquire() returning nullptr is the "all slots busy" signal the
// dispatcher uses to stop admitting session queries for the tick.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "bfs/bfs_status.hpp"

namespace sembfs::serve {

class StatusSlotPool {
 public:
  /// Allocates `capacity` BfsStatus slots for a `vertex_count` graph.
  StatusSlotPool(Vertex vertex_count, std::size_t capacity);

  StatusSlotPool(const StatusSlotPool&) = delete;
  StatusSlotPool& operator=(const StatusSlotPool&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::size_t free() const noexcept {
    return slots_.size() - in_use_;
  }
  /// DRAM held by all slots (capacity planning; see docs/SERVING.md).
  [[nodiscard]] std::uint64_t byte_size() const noexcept;

  /// Borrows a free slot, or nullptr when every slot is busy. NOT
  /// thread-safe: the engine's dispatcher is the only caller.
  [[nodiscard]] BfsStatus* try_acquire();
  /// Returns a borrowed slot. `status` must come from try_acquire().
  void release(BfsStatus* status);

 private:
  struct Slot {
    std::unique_ptr<BfsStatus> status;
    bool busy = false;
  };
  std::vector<Slot> slots_;
  std::size_t in_use_ = 0;
};

}  // namespace sembfs::serve
