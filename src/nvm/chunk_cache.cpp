#include "nvm/chunk_cache.hpp"

#include <algorithm>
#include <cstring>

#include "nvm/crc32.hpp"
#include "util/contracts.hpp"

namespace sembfs {

ChunkCache::ChunkCache(std::size_t capacity_bytes, std::uint32_t chunk_bytes,
                       std::size_t shard_count)
    : chunk_bytes_(chunk_bytes),
      capacity_bytes_(capacity_bytes),
      obs_hits_(&obs::metrics().counter("chunk_cache.hits")),
      obs_misses_(&obs::metrics().counter("chunk_cache.misses")),
      obs_evictions_(&obs::metrics().counter("chunk_cache.evictions")),
      obs_insertions_(&obs::metrics().counter("chunk_cache.insertions")),
      obs_checksum_failures_(
          &obs::metrics().counter("chunk_cache.checksum_failures")),
      obs_refetches_(&obs::metrics().counter("chunk_cache.refetches")) {
  SEMBFS_EXPECTS(chunk_bytes > 0);
  SEMBFS_EXPECTS(shard_count > 0);
  const std::size_t total_slots =
      std::max<std::size_t>(shard_count, capacity_bytes / chunk_bytes);
  const std::size_t per_shard =
      std::max<std::size_t>(1, total_slots / shard_count);
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->slots.resize(per_shard);
    shard->index.reserve(per_shard);
    shards_.push_back(std::move(shard));
  }
}

std::size_t ChunkCache::slot_count() const noexcept {
  return shards_.size() * shards_.front()->slots.size();
}

ChunkCache::Shard& ChunkCache::shard_of(const Key& key) noexcept {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

bool ChunkCache::lookup(const Key& key, std::uint64_t skip,
                        std::span<std::byte> dst) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  Slot& slot = shard.slots[it->second];
  SEMBFS_ASSERT(slot.valid && skip + dst.size() <= slot.length);
  std::memcpy(dst.data(), slot.data.get() + skip, dst.size());
  slot.referenced = true;
  return true;
}

void ChunkCache::insert(const Key& key, std::span<const std::byte> chunk) {
  SEMBFS_ASSERT(chunk.size() <= chunk_bytes_);
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.index.contains(key)) return;  // a concurrent miss beat us to it
  // Clock sweep: clear reference bits until an unreferenced victim appears.
  std::size_t victim = shard.hand;
  for (;;) {
    Slot& candidate = shard.slots[victim];
    if (!candidate.valid || !candidate.referenced) break;
    candidate.referenced = false;
    victim = (victim + 1) % shard.slots.size();
  }
  shard.hand = (victim + 1) % shard.slots.size();
  Slot& slot = shard.slots[victim];
  if (slot.valid) {
    shard.index.erase(slot.key);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) obs_evictions_->add(1);
  }
  if (slot.data == nullptr)
    slot.data = std::make_unique<std::byte[]>(chunk_bytes_);
  std::memcpy(slot.data.get(), chunk.data(), chunk.size());
  slot.key = key;
  slot.valid = true;
  slot.referenced = true;
  slot.length = static_cast<std::uint32_t>(chunk.size());
  shard.index[key] = static_cast<std::uint32_t>(victim);
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs_insertions_->add(1);
}

void ChunkCache::set_verify_checksums(bool verify, int max_refetches) {
  SEMBFS_EXPECTS(max_refetches >= 0);
  verify_ = verify;
  max_refetches_ = max_refetches;
}

std::span<const std::byte> ChunkCache::verify_chunk(
    NvmBackingFile& file, std::uint64_t chunk_index,
    std::uint64_t chunk_begin, std::span<const std::byte> chunk,
    std::vector<std::byte>& refetch_buf, std::uint64_t& requests) {
  const std::optional<std::uint32_t> want =
      file.chunk_crc(chunk_index, chunk_bytes_);
  if (!want.has_value()) return chunk;  // unrecorded chunk: trust it
  if (crc32(chunk) == *want) return chunk;
  checksum_failures_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs_checksum_failures_->add(1);
  // Corrective re-read of just this chunk. A transient device-injected
  // corruption heals here (the re-read consumes a fresh fault index); a
  // persistent flip in the backing store exhausts the budget and throws.
  for (int attempt = 0; attempt < max_refetches_; ++attempt) {
    refetch_buf.resize(chunk.size());
    file.read(chunk_begin, std::span<std::byte>{refetch_buf});
    ++requests;
    refetches_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) obs_refetches_->add(1);
    chunk = std::span<const std::byte>{refetch_buf};
    if (crc32(chunk) == *want) return chunk;
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) obs_checksum_failures_->add(1);
  }
  throw NvmIoError("chunk checksum mismatch persists after " +
                   std::to_string(max_refetches_) +
                   " re-fetch(es): chunk #" + std::to_string(chunk_index) +
                   " at byte " + std::to_string(chunk_begin));
}

std::uint64_t ChunkCache::read(NvmBackingFile& file, std::uint64_t offset,
                               std::span<std::byte> out,
                               std::uint64_t max_miss_request_bytes) {
  if (out.empty()) return 0;
  const std::uint64_t cb = chunk_bytes_;
  const std::uint64_t file_size = file.size();
  SEMBFS_EXPECTS(offset + out.size() <= file_size);
  const std::uint64_t miss_cap =
      max_miss_request_bytes == 0 ? cb : std::max<std::uint64_t>(cb, max_miss_request_bytes);
  const std::uintptr_t file_id = reinterpret_cast<std::uintptr_t>(&file);

  const std::uint64_t first_chunk = offset / cb;
  const std::uint64_t last_chunk = (offset + out.size() - 1) / cb;

  // Pass 1: serve what we can from the cache, remember the missing chunks.
  std::uint64_t local_hits = 0;
  std::vector<std::uint64_t> missing;
  for (std::uint64_t c = first_chunk; c <= last_chunk; ++c) {
    const std::uint64_t chunk_begin = c * cb;
    const std::uint64_t copy_begin = std::max(chunk_begin, offset);
    const std::uint64_t copy_end =
        std::min(chunk_begin + cb, offset + out.size());
    if (lookup(Key{file_id, c}, copy_begin - chunk_begin,
               out.subspan(copy_begin - offset, copy_end - copy_begin))) {
      ++local_hits;
    } else {
      missing.push_back(c);
    }
  }
  hits_.fetch_add(local_hits, std::memory_order_relaxed);
  misses_.fetch_add(missing.size(), std::memory_order_relaxed);
  if (obs::enabled()) {
    obs_hits_->add(local_hits);
    obs_misses_->add(missing.size());
  }
  if (missing.empty()) return 0;

  // Pass 2: fetch runs of consecutive missing chunks, each run in device
  // requests of at most `miss_cap` bytes, then insert and deliver.
  std::uint64_t requests = 0;
  std::vector<std::byte> staging;
  std::vector<std::byte> refetch_buf;
  std::size_t i = 0;
  while (i < missing.size()) {
    std::size_t j = i + 1;
    while (j < missing.size() && missing[j] == missing[j - 1] + 1 &&
           (missing[j] + 1 - missing[i]) * cb <= miss_cap) {
      ++j;
    }
    const std::uint64_t run_begin = missing[i] * cb;
    const std::uint64_t run_end =
        std::min((missing[j - 1] + 1) * cb, file_size);
    staging.resize(run_end - run_begin);
    file.read(run_begin, std::span<std::byte>{staging});
    ++requests;
    for (std::size_t k = i; k < j; ++k) {
      const std::uint64_t chunk_begin = missing[k] * cb;
      const std::uint64_t chunk_end = std::min(chunk_begin + cb, file_size);
      std::span<const std::byte> chunk{
          staging.data() + (chunk_begin - run_begin), chunk_end - chunk_begin};
      if (verify_) {
        chunk = verify_chunk(file, missing[k], chunk_begin, chunk,
                             refetch_buf, requests);
      }
      insert(Key{file_id, missing[k]}, chunk);
      const std::uint64_t copy_begin = std::max(chunk_begin, offset);
      const std::uint64_t copy_end =
          std::min(chunk_end, offset + out.size());
      std::memcpy(out.data() + (copy_begin - offset),
                  chunk.data() + (copy_begin - chunk_begin),
                  copy_end - copy_begin);
    }
    i = j;
  }
  return requests;
}

ChunkCacheStats ChunkCache::stats() const noexcept {
  ChunkCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
  s.refetches = refetches_.load(std::memory_order_relaxed);
  return s;
}

void ChunkCache::reset_stats() noexcept {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  checksum_failures_.store(0, std::memory_order_relaxed);
  refetches_.store(0, std::memory_order_relaxed);
}

void ChunkCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->index.clear();
    for (Slot& slot : shard->slots) {
      slot.valid = false;
      slot.referenced = false;
    }
    shard->hand = 0;
  }
}

}  // namespace sembfs
