// The semi-external forward graph: per-NUMA-node CSR partitions whose
// index and value arrays live in files on a simulated NVM device (paper
// Section V-B-1).
//
// Per partition there are two files — the "array file" (index) and the
// "value file" — exactly as the paper describes ("our approach actually
// requires twice as many files as the number of NUMA nodes"). Top-down
// levels read them one dequeue batch of frontier vertices at a time:
//   1. the batch's index entries, nearby entries merged into one request,
//   2. the batch's adjacency ranges, nearby ranges merged into requests of
//      at most kMaxRequestBytes (the libaio-style aggregation the paper's
//      Figure 13 concludes would get more out of the device).
// Both phases are posted to an IoScheduler, and fetch_batches_pipelined —
// the one loop that reads forward adjacency from NVM, for single-node
// levels and for shards alike — keeps the next batch's reads in flight
// while the current batch is processed, so the device sees as many
// requests at once as the scheduler is deep.
//
// The tier limit t implements the paper's "future work includes further
// offloading graph data especially with small edges" (Section VIII): lists
// of at most t entries stay in DRAM and only the longer ones go to the
// device, where a large sequential read amortizes the device latency that
// Figure 11's late top-down levels pay for every degree-1 vertex. The
// device files keep an index entry per source (an empty range for a list
// held in DRAM). t = 0, the default, offloads every list.
//
// The per-vertex primitive fetch_neighbors (one 16-byte index read, then
// <= 4 KiB value chunks: the paper's own read(2) discipline) serves degree
// lookups, triangle counting and the tests' request-count baselines.
//
// A ChunkCache shared by all partitions can serve repeated 4 KiB chunks
// (hub index entries and hub adjacency prefixes) from DRAM.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/forward_graph.hpp"
#include "nvm/chunk_cache.hpp"
#include "nvm/chunk_format.hpp"
#include "nvm/compressed_file.hpp"
#include "nvm/external_array.hpp"
#include "nvm/io_scheduler.hpp"
#include "nvm/nvm_device.hpp"
#include "numa/partition.hpp"
#include "util/bitmap.hpp"

namespace sembfs {

/// Batched fetches merge two reads when the gap between them is at most
/// this many bytes...
inline constexpr std::uint32_t kMergeGapBytes = 4096;
/// ...and the merged request stays within this cap. A single adjacency
/// longer than the cap is issued in cap-sized slices.
inline constexpr std::uint32_t kMaxRequestBytes = 1 << 20;

/// One merged byte range read posted to an IoScheduler. Destroying it waits
/// for the read to land, since the read writes into `staging`.
struct ScheduledRead {
  ScheduledRead() = default;
  ScheduledRead(ScheduledRead&&) noexcept = default;
  ScheduledRead& operator=(ScheduledRead&&) = delete;
  ~ScheduledRead() {
    if (done.valid()) done.wait();
  }

  std::uint64_t begin = 0;  // byte offsets within the file's array
  std::uint64_t end = 0;
  std::vector<std::byte> staging;
  std::future<IoResult> done;
};

/// An aggregated adjacency fetch whose merged value-range reads are in
/// flight on an IoScheduler. Obtained from
/// ExternalCsrPartition::start_fetch_neighbors_batch; wait() blocks until
/// every posted range completes and scatters the per-vertex adjacencies.
/// Move-only; destroying or overwriting it waits for its reads, and it must
/// go before the partition it references.
class PendingNeighborsBatch {
 public:
  /// False for a default-constructed (empty) pending batch.
  [[nodiscard]] bool valid() const noexcept { return valid_; }

  /// Waits for all in-flight reads, fills out[i] with the adjacency of
  /// batch[i], and returns the total device requests issued (index phase +
  /// value phase). Every read is collected before any error is raised
  /// (rethrown from the first failed range), so no request is left in
  /// flight against freed staging. May be called once.
  std::uint64_t wait(std::vector<std::vector<Vertex>>& out);

  /// One batch slot's adjacency bounds in the value array (entry indices).
  struct SlotBounds {
    std::size_t slot = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

 private:
  friend class ExternalCsrPartition;

  bool valid_ = false;
  std::size_t batch_size_ = 0;
  std::uint64_t index_requests_ = 0;
  std::vector<SlotBounds> bounds_;  // sorted by value-range begin
  std::vector<ScheduledRead> reads_;
};

class ExternalCsrPartition {
 public:
  /// Offloads `csr` (one forward partition) to two files under `dir` on
  /// `device`. Existing files are overwritten. Each raw file keeps the
  /// CRC32 of every chunk it stores (NvmBackingFile::chunk_crc). With
  /// ChunkFormat::kVarint the value file is wrapped in a
  /// CompressedBlockFile: the device stores delta/varint blobs (its own
  /// per-blob CRCs, always verified) while every reader above still sees
  /// plain Vertex bytes; the index file stays raw either way. Lists of at
  /// most `tier_limit` entries stay in DRAM instead (0: none do).
  ExternalCsrPartition(const Csr& csr, std::shared_ptr<NvmDevice> device,
                       const std::string& dir, std::size_t node_id,
                       std::uint32_t chunk_bytes = 4096,
                       ChunkFormat format = ChunkFormat::kRaw,
                       std::int64_t tier_limit = 0);

  /// Striped variant: the two files are spread round-robin across several
  /// physical devices (the paper's machine carried multiple flash cards).
  ExternalCsrPartition(const Csr& csr,
                       std::vector<std::shared_ptr<NvmDevice>> devices,
                       const std::string& dir, std::size_t node_id,
                       std::uint32_t chunk_bytes = 4096,
                       ChunkFormat format = ChunkFormat::kRaw,
                       std::int64_t tier_limit = 0);

  [[nodiscard]] VertexRange source_range() const noexcept { return sources_; }
  [[nodiscard]] VertexRange destination_range() const noexcept {
    return destinations_;
  }
  /// Adjacency entries of both tiers.
  [[nodiscard]] std::int64_t entry_count() const noexcept {
    return entry_count_;
  }
  [[nodiscard]] std::uint32_t chunk_bytes() const noexcept {
    return chunk_bytes_;
  }
  [[nodiscard]] ChunkFormat format() const noexcept { return format_; }
  /// True when v's list is held in DRAM (it has at most the tier limit's
  /// entries). Always false with a tier limit of 0.
  [[nodiscard]] bool in_dram(Vertex v) const noexcept {
    return tier_limit_ > 0 &&
           in_dram_.test(static_cast<std::size_t>(v - sources_.begin));
  }
  /// DRAM bytes of the lists held in DRAM and their routing bitmap.
  [[nodiscard]] std::uint64_t dram_byte_size() const noexcept {
    return dram_tier_.byte_size() + in_dram_.word_count() * 8;
  }
  /// Device bytes this partition occupies: raw index bytes plus raw or
  /// encoded value bytes depending on the format.
  [[nodiscard]] std::uint64_t nvm_byte_size() const noexcept;
  /// Decoded device payload bytes (index + values as kRaw would store
  /// them).
  [[nodiscard]] std::uint64_t raw_byte_size() const noexcept;
  /// The compressed value store, or nullptr in kRaw format.
  [[nodiscard]] const CompressedBlockFile* compressed_values() const noexcept {
    return compressed_;
  }
  /// Propagates the CRC-heal re-fetch allowance to the compressed value
  /// store (no-op in kRaw format, whose healing lives in the ChunkCache).
  void set_compressed_max_refetches(int refetches) noexcept {
    if (compressed_ != nullptr) compressed_->set_max_refetches(refetches);
  }

  /// Routes all index/value reads (chunked and aggregated) through `cache`
  /// (nullptr detaches). The cache's chunk size must match this
  /// partition's.
  void attach_cache(ChunkCache* cache);
  [[nodiscard]] ChunkCache* cache() const noexcept {
    return cache_.load(std::memory_order_acquire);
  }

  /// Degree of global vertex v — one index-file request, or none when the
  /// list is held in DRAM.
  std::int64_t degree(Vertex v);

  /// Reads the adjacency list of global vertex v into `out` (resized).
  /// Returns the number of device requests issued (index + value chunks;
  /// 0 for a list held in DRAM).
  std::uint64_t fetch_neighbors(Vertex v, std::vector<Vertex>& out);

  /// Reads entries [begin,end) of the device value array directly.
  std::uint64_t fetch_range(std::int64_t begin, std::int64_t end,
                            std::vector<Vertex>& out);

  /// Reads the two device index entries bounding v's adjacency (one
  /// request). A list held in DRAM has an empty device range.
  std::pair<std::int64_t, std::int64_t> fetch_bounds(Vertex v);

  /// Batched, request-merging fetch (the paper's Figure-13 conclusion:
  /// "we may exploit further I/O performance of the devices by aggregating
  /// small I/O operations such as libaio") of every list in `batch`, none
  /// of which may be held in DRAM. Index reads for nearby vertices and
  /// value reads for nearby ranges are merged into single device requests
  /// when the gap between them is <= `merge_gap_bytes` and the merged
  /// request stays <= `max_request_bytes`. Posts the merged index reads
  /// to `scheduler` and waits for them (the value ranges depend on them),
  /// then posts the merged value-range reads and returns without waiting.
  /// The caller overlaps edge processing with the in-flight reads and
  /// collects out[i] for batch[i] via PendingNeighborsBatch::wait. `retry`
  /// governs every read posted. An index-phase failure throws NvmIoError
  /// once all of the batch's index reads have landed.
  PendingNeighborsBatch start_fetch_neighbors_batch(
      std::span<const Vertex> batch, IoScheduler& scheduler,
      const RetryPolicy& retry,
      std::uint32_t merge_gap_bytes = kMergeGapBytes,
      std::uint32_t max_request_bytes = kMaxRequestBytes);

  /// The semi-external top-down read loop that the BFS step, the engine's
  /// scatter and the shards share. Pulls dequeue batches from
  /// `next_batch()` until it returns an empty span and calls
  /// `visit(v, adjacency)` for every vertex of each. Lists held in DRAM
  /// are visited as their batch is claimed; the others are read through
  /// start_fetch_neighbors_batch, the next batch's reads in flight on
  /// `scheduler` while the current one is visited. When a batch's reads
  /// fail, its device-held lists are not visited: `on_failure()` is told
  /// instead, and nothing throws. Returns the device requests issued.
  template <typename NextBatch, typename Visit, typename OnFailure>
  std::uint64_t fetch_batches_pipelined(IoScheduler& scheduler,
                                        const RetryPolicy& retry,
                                        NextBatch&& next_batch, Visit&& visit,
                                        OnFailure&& on_failure);

 private:
  /// Writes the lists longer than the tier limit to the device, and keeps
  /// the others in dram_tier_.
  void offload(const Csr& csr, std::uint32_t chunk_bytes);
  /// Replaces value_file_ with a CompressedBlockFile built from the DRAM
  /// values (kVarint offload path).
  void compress_values(const Csr& csr, std::uint32_t chunk_bytes);
  /// Index phase of a batched fetch: merged index reads through
  /// `scheduler`, producing per-slot value bounds sorted by value-range
  /// begin. Adds issued requests to `requests`.
  std::vector<PendingNeighborsBatch::SlotBounds> batch_bounds(
      std::span<const Vertex> batch, std::uint32_t merge_gap_bytes,
      std::uint32_t max_request_bytes, IoScheduler& scheduler,
      const RetryPolicy& retry, std::uint64_t& requests);

  VertexRange sources_;
  VertexRange destinations_;
  std::int64_t entry_count_ = 0;
  std::uint32_t chunk_bytes_ = 4096;
  ChunkFormat format_ = ChunkFormat::kRaw;
  std::int64_t tier_limit_ = 0;
  // The lists held in DRAM, with an empty list where the device holds
  // one, and the local sources they belong to. Both empty when
  // tier_limit_ is 0.
  Csr dram_tier_;
  Bitmap in_dram_;
  std::unique_ptr<NvmBackingFile> index_file_;
  // In kVarint format this IS the CompressedBlockFile (compressed_ aliases
  // it), so every downstream reader stays format-oblivious.
  std::unique_ptr<NvmBackingFile> value_file_;
  CompressedBlockFile* compressed_ = nullptr;
  std::unique_ptr<ExternalArray<std::int64_t>> index_;
  std::unique_ptr<ExternalArray<Vertex>> values_;
  // Published atomically: a cache may be attached while another traversal
  // reads (ExternalForwardGraph::enable_chunk_cache).
  std::atomic<ChunkCache*> cache_{nullptr};
};

template <typename NextBatch, typename Visit, typename OnFailure>
std::uint64_t ExternalCsrPartition::fetch_batches_pipelined(
    IoScheduler& scheduler, const RetryPolicy& retry, NextBatch&& next_batch,
    Visit&& visit, OnFailure&& on_failure) {
  // Two pipeline slots, each holding one claimed batch's device-held
  // vertices and their reads in flight.
  std::span<const Vertex> on_device[2];
  std::vector<Vertex> hubs[2];  // on_device's storage under a tier limit
  PendingNeighborsBatch pending[2];
  // Claims the next batch into slot s, posts the reads of its device-held
  // lists and visits the ones held in DRAM. False when no batch is left.
  const auto claim = [&](int s) {
    const std::span<const Vertex> batch = next_batch();
    if (batch.empty()) return false;
    on_device[s] = batch;
    if (tier_limit_ > 0) {
      hubs[s].clear();
      for (const Vertex v : batch)
        if (!in_dram(v)) hubs[s].push_back(v);
      on_device[s] = hubs[s];
    }
    if (!on_device[s].empty()) {
      try {
        pending[s] =
            start_fetch_neighbors_batch(on_device[s], scheduler, retry);
      } catch (const std::exception&) {
        on_failure();
      }
    }
    if (tier_limit_ > 0) {
      for (const Vertex v : batch)
        if (in_dram(v)) visit(v, dram_tier_.neighbors(v));
    }
    return true;
  };
  std::vector<std::vector<Vertex>> adjacencies;
  std::uint64_t requests = 0;
  int s = 0;
  bool claimed = claim(s);
  while (claimed) {
    claimed = claim(1 - s);
    if (pending[s].valid()) {
      bool fetched = true;
      try {
        requests += pending[s].wait(adjacencies);
      } catch (const std::exception&) {
        fetched = false;
        on_failure();
      }
      if (fetched) {
        for (std::size_t i = 0; i < on_device[s].size(); ++i)
          visit(on_device[s][i], std::span<const Vertex>{adjacencies[i]});
      }
    }
    s = 1 - s;
  }
  return requests;
}

/// The full semi-external forward graph: one ExternalCsrPartition per node,
/// all sharing one physical NVM device (or one stripe set). Concurrent
/// traversals may share it: the chunk cache and the I/O scheduler are each
/// created once, under a lock, and never replaced while the graph lives
/// (disable_chunk_cache aside, which must not race a traversal).
class ExternalForwardGraph {
 public:
  /// Offloads an in-DRAM forward graph; the DRAM copy may be discarded
  /// afterwards (that is the point). ChunkFormat::kVarint stores the value
  /// files compressed (see ExternalCsrPartition). Each partition keeps its
  /// lists of at most `tier_limit` entries in DRAM (0: offloads them all).
  ExternalForwardGraph(const ForwardGraph& forward,
                       std::shared_ptr<NvmDevice> device,
                       const std::string& dir,
                       std::uint32_t chunk_bytes = 4096,
                       ChunkFormat format = ChunkFormat::kRaw,
                       std::int64_t tier_limit = 0);

  /// Striped variant across several physical devices.
  ExternalForwardGraph(const ForwardGraph& forward,
                       std::vector<std::shared_ptr<NvmDevice>> devices,
                       const std::string& dir,
                       std::uint32_t chunk_bytes = 4096,
                       ChunkFormat format = ChunkFormat::kRaw,
                       std::int64_t tier_limit = 0);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return partitions_.size();
  }
  [[nodiscard]] ExternalCsrPartition& partition(std::size_t node) noexcept {
    return *partitions_[node];
  }
  [[nodiscard]] const VertexPartition& vertex_partition() const noexcept {
    return vertex_partition_;
  }
  [[nodiscard]] Vertex vertex_count() const noexcept {
    return vertex_partition_.vertex_count();
  }
  [[nodiscard]] NvmDevice& device() noexcept { return *device_; }
  [[nodiscard]] ChunkFormat format() const noexcept { return format_; }
  [[nodiscard]] std::uint64_t nvm_byte_size() const noexcept;
  /// DRAM bytes of the lists the tier limit keeps off the device.
  [[nodiscard]] std::uint64_t dram_byte_size() const noexcept;
  /// Decoded payload bytes across all partitions (what kRaw would store);
  /// nvm_byte_size() / raw_byte_size() is the realized compression ratio.
  [[nodiscard]] std::uint64_t raw_byte_size() const noexcept;
  [[nodiscard]] std::int64_t entry_count() const noexcept;

  /// Creates a chunk cache of ~`capacity_bytes` shared by every partition
  /// and attaches it to all index/value read paths, or returns the cache
  /// already there, whatever its capacity: a warm cache survives across
  /// BFS runs, and a cache is never replaced under a reader.
  ChunkCache& enable_chunk_cache(std::size_t capacity_bytes);
  /// Detaches and frees the cache, so the next enable_chunk_cache starts
  /// cold. Must not run while a traversal reads the graph.
  void disable_chunk_cache();
  [[nodiscard]] ChunkCache* chunk_cache() noexcept;

  /// The graph's one I/O scheduler, which every semi-external top-down
  /// level reads through. Created on first use with a depth of the summed
  /// service channels of the graph's devices, so every channel can be
  /// busy, or `compute_workers` when that is larger, so there are never
  /// fewer reads in flight than workers; a later call with more workers
  /// grows it in place. Kept for the graph's lifetime.
  IoScheduler& io_scheduler(std::size_t compute_workers);
  /// The scheduler, or nullptr before the first top-down level.
  [[nodiscard]] IoScheduler* io_scheduler() noexcept;

  /// Turns end-to-end corruption detection on: every chunk the cache
  /// fetches from the device is verified against the offload-time CRC32s
  /// its file keeps,
  /// with up to `max_refetches` corrective re-reads per bad chunk.
  /// Requires an enabled chunk cache (verification lives on the miss
  /// path). Off by default — the no-fault benchmark path stays untouched.
  /// Repeating a call with the same allowance changes nothing.
  void enable_checksum_verification(int max_refetches = 1);
  void disable_checksum_verification();

 private:
  VertexPartition vertex_partition_;
  std::shared_ptr<NvmDevice> device_;
  std::size_t device_channels_ = 0;
  std::uint32_t chunk_bytes_ = 4096;
  ChunkFormat format_ = ChunkFormat::kRaw;
  std::vector<std::unique_ptr<ExternalCsrPartition>> partitions_;
  std::mutex mutex_;  // guards the four members below
  std::unique_ptr<ChunkCache> cache_;
  // Declared after cache_ and partitions_, so it is joined before the files
  // and cache its requests reference go away.
  std::unique_ptr<IoScheduler> scheduler_;
  bool verify_checksums_ = false;  // survives disable_chunk_cache
  int checksum_max_refetches_ = 1;
};

}  // namespace sembfs
