// Bounded, sharded cache of chunk-aligned blocks over NVM-backed files.
//
// The semi-external BFS re-reads the forward graph's index and value files
// every top-down level, and Kronecker degree skew concentrates those reads
// on a small set of hub chunks: the 4 KiB blocks holding hub index entries
// and hub adjacency prefixes are touched at every level. Caching them in a
// small DRAM pool removes the repeat device requests without giving up the
// semi-external memory budget (the cache is bounded and far smaller than
// the offloaded graph).
//
// Design:
//  - Blocks are chunk-aligned and keyed by (backing file, chunk index), so
//    the cache granularity is exactly the paper's 4 KiB device-request
//    discipline (Section V-B-1).
//  - The table is sharded; each shard holds a fixed number of slots under
//    its own mutex and evicts with the clock (second-chance) policy — an
//    LRU approximation that needs no per-hit list splice, following the
//    FlashGraph/SAFS page-cache design.
//  - read() is a read-through operation: cached chunks are served from
//    DRAM, consecutive missing chunks are fetched from the device in merged
//    requests of at most `max_miss_request_bytes` and inserted.
//  - Files are assumed immutable while cached (the BFS read path never
//    writes the offloaded CSR); clear() drops everything if a caller does
//    rewrite a file.
//  - With verification on, every chunk filled from the device is checked
//    against the CRC table of its own file (NvmBackingFile::chunk_crc),
//    recorded at offload from the DRAM source. A raw chunk can only be
//    checked whole, so this is the one place raw chunks are verified;
//    varint blobs are verified inside CompressedBlockFile, before they
//    are decoded.
//
// Hit/miss/eviction counters feed the Figure 11-13 analysis: every hit is
// one device request (and its queue residence) that no longer happens.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "nvm/nvm_device.hpp"
#include "obs/metrics.hpp"

namespace sembfs {

/// Point-in-time view of the cache counters.
struct ChunkCacheStats {
  std::uint64_t hits = 0;        ///< chunk lookups served from DRAM
  std::uint64_t misses = 0;      ///< chunk lookups that went to the device
  std::uint64_t evictions = 0;   ///< valid slots reclaimed by the clock
  std::uint64_t insertions = 0;  ///< chunks filled from the device
  std::uint64_t checksum_failures = 0;  ///< fetched chunks that failed CRC
  std::uint64_t refetches = 0;   ///< corrective single-chunk re-reads

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class ChunkCache {
 public:
  /// A cache of ~`capacity_bytes` of `chunk_bytes`-aligned blocks spread
  /// over `shard_count` independently locked shards. Capacity is rounded so
  /// every shard owns at least one slot.
  explicit ChunkCache(std::size_t capacity_bytes,
                      std::uint32_t chunk_bytes = 4096,
                      std::size_t shard_count = 16);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  [[nodiscard]] std::uint32_t chunk_bytes() const noexcept {
    return chunk_bytes_;
  }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return capacity_bytes_;
  }
  [[nodiscard]] std::size_t slot_count() const noexcept;

  /// Read-through: fills `out` with file bytes [offset, offset+out.size()),
  /// serving cached chunks from DRAM and fetching missing ones from the
  /// device. Runs of consecutive missing chunks are fetched in single
  /// device requests of at most `max_miss_request_bytes` (0 = one request
  /// per chunk — the paper's strict 4 KiB read(2) discipline). Returns the
  /// number of device requests issued (0 on a full hit).
  std::uint64_t read(NvmBackingFile& file, std::uint64_t offset,
                     std::span<std::byte> out,
                     std::uint64_t max_miss_request_bytes = 0);

  /// Turns verification on or off; set before reads begin. While on,
  /// every chunk fetched from the device is checked against its file's
  /// recorded CRC32 before insertion; on a mismatch the chunk alone is
  /// re-fetched up to `max_refetches` times (healing transient device
  /// corruption) and NvmIoError is thrown if it still mismatches
  /// (persistent backing-store damage). Chunks of a file that recorded no
  /// CRCs are delivered unverified.
  void set_verify_checksums(bool verify, int max_refetches = 1);

  [[nodiscard]] ChunkCacheStats stats() const noexcept;
  void reset_stats() noexcept;

  /// Drops every cached chunk (use after rewriting a cached file).
  void clear();

 private:
  struct Key {
    std::uintptr_t file = 0;
    std::uint64_t chunk = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // splitmix64-style mix of the two words.
      std::uint64_t x = (static_cast<std::uint64_t>(k.file) * 0x9e3779b97f4a7c15ULL) ^ k.chunk;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x * 0x94d049bb133111ebULL);
    }
  };
  struct Slot {
    Key key;
    bool valid = false;
    bool referenced = false;       // clock second-chance bit
    std::uint32_t length = 0;      // bytes valid (tail chunks may be short)
    std::unique_ptr<std::byte[]> data;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, std::uint32_t, KeyHash> index;
    std::vector<Slot> slots;
    std::size_t hand = 0;          // clock hand
  };

  Shard& shard_of(const Key& key) noexcept;
  /// Copies a cached chunk into `dst` if present; marks it referenced.
  bool lookup(const Key& key, std::uint64_t skip, std::span<std::byte> dst);
  /// Inserts one chunk (evicting via the clock if the shard is full).
  void insert(const Key& key, std::span<const std::byte> chunk);
  /// Verifies one fetched chunk against its file's recorded CRC,
  /// re-fetching it from `file` on mismatch. Returns the (possibly
  /// replaced) chunk bytes — `refetch_buf` provides storage for the
  /// replacement — and adds re-fetch device requests to `requests`.
  /// Throws NvmIoError when the chunk still mismatches after
  /// max_refetches_ re-reads.
  std::span<const std::byte> verify_chunk(
      NvmBackingFile& file, std::uint64_t chunk_index,
      std::uint64_t chunk_begin, std::span<const std::byte> chunk,
      std::vector<std::byte>& refetch_buf, std::uint64_t& requests);

  std::uint32_t chunk_bytes_;
  std::size_t capacity_bytes_;
  bool verify_ = false;
  int max_refetches_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> checksum_failures_{0};
  std::atomic<std::uint64_t> refetches_{0};

  // Observability handles mirroring the local counters into the global
  // registry (aggregated across caches), resolved once at construction.
  obs::Counter* obs_hits_;
  obs::Counter* obs_misses_;
  obs::Counter* obs_evictions_;
  obs::Counter* obs_insertions_;
  obs::Counter* obs_checksum_failures_;
  obs::Counter* obs_refetches_;
};

}  // namespace sembfs
