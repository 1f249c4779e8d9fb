#include "nvm/chunk_reader.hpp"

#include <algorithm>

#include "nvm/chunk_cache.hpp"
#include "util/contracts.hpp"

namespace sembfs {

void ChunkReader::set_cache(ChunkCache* cache) noexcept {
  SEMBFS_EXPECTS(cache == nullptr || cache->chunk_bytes() == chunk_bytes_);
  cache_.store(cache, std::memory_order_release);
}

std::uint64_t ChunkReader::read_range(std::uint64_t offset,
                                      std::span<std::byte> buffer) {
  SEMBFS_EXPECTS(chunk_bytes_ > 0);
  if (buffer.empty()) return 0;
  if (ChunkCache* const cache = this->cache(); cache != nullptr) {
    // Read-through; misses are fetched one aligned chunk per request
    // (max_miss_request_bytes = 0), preserving the 4 KiB discipline.
    return cache->read(*file_, offset, buffer, 0);
  }
  std::uint64_t requests = 0;
  std::size_t done = 0;
  while (done < buffer.size()) {
    const std::uint64_t pos = offset + done;
    // Never cross the next chunk boundary: the first request of a
    // mid-chunk range is truncated at the boundary so every request maps
    // onto exactly one device chunk.
    const auto to_boundary =
        static_cast<std::size_t>(chunk_bytes_ - pos % chunk_bytes_);
    const std::size_t len =
        std::min<std::size_t>(to_boundary, buffer.size() - done);
    file_->read(pos, buffer.subspan(done, len));
    done += len;
    ++requests;
  }
  return requests;
}

}  // namespace sembfs
