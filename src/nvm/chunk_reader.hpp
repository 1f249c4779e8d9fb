// 4 KiB-chunked range reads, as the paper specifies:
//   "our current implementation reads a continuous region for a vertex at
//    4KB chunks by using POSIX read(2) API" (Section V-B-1).
//
// A range [offset, offset+len) is split into device requests that each lie
// inside ONE `chunk_bytes`-aligned device chunk: the first request runs
// only up to the next chunk boundary, subsequent requests are
// boundary-aligned. A range starting mid-chunk therefore never issues a
// request straddling two device chunks — straddles would under-count the
// device requests iostat sees and break the avgrq-sz / avgqu-sz
// equivalence with the paper's traces.
//
// An optional ChunkCache (same chunk geometry) serves repeated chunks from
// DRAM; only misses reach the device.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "nvm/nvm_device.hpp"

namespace sembfs {

class ChunkCache;

class ChunkReader {
 public:
  explicit ChunkReader(NvmBackingFile& file, std::uint32_t chunk_bytes = 4096,
                       ChunkCache* cache = nullptr) noexcept
      : file_(&file), chunk_bytes_(chunk_bytes), cache_(cache) {}

  [[nodiscard]] std::uint32_t chunk_bytes() const noexcept {
    return chunk_bytes_;
  }

  /// Attaches (or detaches, with nullptr) a chunk cache. The cache must use
  /// the same chunk size so cached blocks align with device chunks. The
  /// pointer is published atomically, so a cache attached while another
  /// thread reads is seen either not at all or fully built.
  void set_cache(ChunkCache* cache) noexcept;
  [[nodiscard]] ChunkCache* cache() const noexcept {
    return cache_.load(std::memory_order_acquire);
  }

  /// Reads buffer.size() bytes from `offset`; every device request stays
  /// within one aligned chunk. Returns the number of device requests issued
  /// (cache hits issue none).
  std::uint64_t read_range(std::uint64_t offset, std::span<std::byte> buffer);

 private:
  NvmBackingFile* file_;
  std::uint32_t chunk_bytes_;
  std::atomic<ChunkCache*> cache_;
};

}  // namespace sembfs
