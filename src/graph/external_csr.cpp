#include "graph/external_csr.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "nvm/storage_file.hpp"
#include "nvm/striped_file.hpp"
#include "util/contracts.hpp"

namespace sembfs {

namespace {

// Construction-time bulk writes go in large strides; the 4 KiB chunk
// discipline only applies to the BFS read path.
constexpr std::size_t kWriteStride = 1 << 20;  // elements per write batch

template <typename T>
void write_array(ExternalArray<T>& dst, const std::vector<T>& src) {
  std::size_t done = 0;
  while (done < src.size()) {
    const std::size_t len = std::min(kWriteStride, src.size() - done);
    dst.write(done, std::span<const T>{src}.subspan(done, len));
    done += len;
  }
}

/// The lists of `csr` whose length `keep` selects, with an empty list for
/// every other source.
template <typename Keep>
Csr select_lists(const Csr& csr, Keep keep) {
  const VertexRange sources = csr.source_range();
  std::vector<std::int64_t> index(static_cast<std::size_t>(sources.size()) +
                                  1);
  std::vector<Vertex> values;
  for (Vertex v = sources.begin; v < sources.end; ++v) {
    if (keep(csr.degree(v))) {
      const std::span<const Vertex> adjacency = csr.neighbors(v);
      values.insert(values.end(), adjacency.begin(), adjacency.end());
    }
    index[static_cast<std::size_t>(v - sources.begin) + 1] =
        static_cast<std::int64_t>(values.size());
  }
  return Csr::from_parts(csr.global_vertex_count(), sources,
                         csr.destination_range(), std::move(index),
                         std::move(values));
}

}  // namespace

ExternalCsrPartition::ExternalCsrPartition(const Csr& csr,
                                           std::shared_ptr<NvmDevice> device,
                                           const std::string& dir,
                                           std::size_t node_id,
                                           std::uint32_t chunk_bytes,
                                           ChunkFormat format,
                                           std::int64_t tier_limit)
    : sources_(csr.source_range()),
      destinations_(csr.destination_range()),
      entry_count_(csr.entry_count()),
      chunk_bytes_(chunk_bytes),
      format_(format),
      tier_limit_(tier_limit) {
  SEMBFS_EXPECTS(device != nullptr);
  ensure_directory(dir);
  const std::string stem = dir + "/fg_node" + std::to_string(node_id);
  index_file_ = std::make_unique<NvmFile>(device, stem + ".index");
  value_file_ = std::make_unique<NvmFile>(device, stem + ".value");
  offload(csr, chunk_bytes);
}

ExternalCsrPartition::ExternalCsrPartition(
    const Csr& csr, std::vector<std::shared_ptr<NvmDevice>> devices,
    const std::string& dir, std::size_t node_id, std::uint32_t chunk_bytes,
    ChunkFormat format, std::int64_t tier_limit)
    : sources_(csr.source_range()),
      destinations_(csr.destination_range()),
      entry_count_(csr.entry_count()),
      chunk_bytes_(chunk_bytes),
      format_(format),
      tier_limit_(tier_limit) {
  SEMBFS_EXPECTS(!devices.empty());
  ensure_directory(dir);
  const std::string stem = dir + "/fg_node" + std::to_string(node_id);
  index_file_ =
      std::make_unique<StripedNvmFile>(devices, stem + ".index");
  value_file_ =
      std::make_unique<StripedNvmFile>(std::move(devices), stem + ".value");
  offload(csr, chunk_bytes);
}

void ExternalCsrPartition::compress_values(const Csr& csr,
                                           std::uint32_t chunk_bytes) {
  // The CompressedBlockFile adopts the physical value file and becomes the
  // value_file_ every downstream reader (ExternalArray, merged fetches,
  // the IoScheduler jobs) sees: they keep addressing decoded bytes while
  // the device stores varint blobs. Its per-blob CRCs make the value path
  // self-verifying, so it records no chunk CRCs (the ChunkCache skips
  // chunks without one).
  auto compressed = std::make_unique<CompressedBlockFile>(
      std::move(value_file_), std::span<const Vertex>{csr.values()},
      chunk_bytes);
  compressed_ = compressed.get();
  value_file_ = std::move(compressed);
}

void ExternalCsrPartition::offload(const Csr& full,
                                   std::uint32_t chunk_bytes) {
  SEMBFS_EXPECTS(tier_limit_ >= 0);
  const Csr* on_device = &full;
  Csr longer;
  if (tier_limit_ > 0) {
    const std::int64_t limit = tier_limit_;
    dram_tier_ = select_lists(full, [=](std::int64_t d) { return d <= limit; });
    longer = select_lists(full, [=](std::int64_t d) { return d > limit; });
    on_device = &longer;
    in_dram_.resize(static_cast<std::size_t>(sources_.size()));
    for (Vertex v = sources_.begin; v < sources_.end; ++v)
      if (full.degree(v) <= limit)
        in_dram_.set(static_cast<std::size_t>(v - sources_.begin));
  }
  const Csr& csr = *on_device;
  index_ = std::make_unique<ExternalArray<std::int64_t>>(
      *index_file_, 0, csr.index().size(), chunk_bytes);
  write_array(*index_, csr.index());
  if (format_ == ChunkFormat::kVarint) {
    compress_values(csr, chunk_bytes);
  }
  values_ = std::make_unique<ExternalArray<Vertex>>(
      *value_file_, 0, csr.values().size(), chunk_bytes);
  if (format_ == ChunkFormat::kRaw) {
    write_array(*values_, csr.values());
  }
  // Checksum the offloaded bytes from the DRAM source (no device reads):
  // these CRCs are the ground truth the read path verifies against. The
  // compressed value store carries its own per-blob CRCs instead. Both
  // arrays start at offset 0 of their files.
  index_file_->record_chunk_crcs(std::as_bytes(std::span{csr.index()}),
                                 chunk_bytes);
  if (format_ == ChunkFormat::kRaw) {
    value_file_->record_chunk_crcs(std::as_bytes(std::span{csr.values()}),
                                   chunk_bytes);
  }
}

std::uint64_t ExternalCsrPartition::nvm_byte_size() const noexcept {
  const std::uint64_t value_bytes = compressed_ != nullptr
                                        ? compressed_->encoded_byte_size()
                                        : values_->byte_size();
  return index_->byte_size() + value_bytes;
}

std::uint64_t ExternalCsrPartition::raw_byte_size() const noexcept {
  return index_->byte_size() + values_->byte_size();
}

void ExternalCsrPartition::attach_cache(ChunkCache* cache) {
  SEMBFS_EXPECTS(cache == nullptr || cache->chunk_bytes() == chunk_bytes_);
  index_->set_cache(cache);
  values_->set_cache(cache);
  cache_.store(cache, std::memory_order_release);
}

std::pair<std::int64_t, std::int64_t> ExternalCsrPartition::fetch_bounds(
    Vertex v) {
  SEMBFS_EXPECTS(sources_.contains(v));
  const auto local = static_cast<std::uint64_t>(v - sources_.begin);
  std::int64_t bounds[2];
  index_->read(local, std::span<std::int64_t>{bounds, 2});
  return {bounds[0], bounds[1]};
}

std::int64_t ExternalCsrPartition::degree(Vertex v) {
  if (in_dram(v)) return dram_tier_.degree(v);
  const auto [b, e] = fetch_bounds(v);
  return e - b;
}

std::uint64_t ExternalCsrPartition::fetch_range(std::int64_t begin,
                                                std::int64_t end,
                                                std::vector<Vertex>& out) {
  SEMBFS_EXPECTS(begin >= 0 && begin <= end);
  SEMBFS_EXPECTS(static_cast<std::uint64_t>(end) <= values_->size());
  out.resize(static_cast<std::size_t>(end - begin));
  if (out.empty()) return 0;
  return values_->read(static_cast<std::uint64_t>(begin),
                       std::span<Vertex>{out});
}

std::uint64_t ExternalCsrPartition::fetch_neighbors(Vertex v,
                                                    std::vector<Vertex>& out) {
  SEMBFS_EXPECTS(sources_.contains(v));
  if (in_dram(v)) {
    const std::span<const Vertex> adjacency = dram_tier_.neighbors(v);
    out.assign(adjacency.begin(), adjacency.end());
    return 0;
  }
  const auto local = static_cast<std::uint64_t>(v - sources_.begin);
  std::int64_t bounds[2];
  // The bounds fetch is usually one device request, but an index pair
  // straddling a chunk boundary (or hitting the cache) changes that —
  // count what the read layer actually issued.
  const std::uint64_t index_requests =
      index_->read(local, std::span<std::int64_t>{bounds, 2});
  return index_requests + fetch_range(bounds[0], bounds[1], out);
}

namespace {

/// A half-open byte range produced by merging nearby requests.
struct MergedRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Greedily merges sorted byte ranges whose gap is <= merge_gap and whose
/// union stays <= max_request. A range already contained in the current
/// merge (duplicate batch vertices, nested adjacencies) always merges,
/// regardless of max_request.
template <typename It, typename BeginFn, typename EndFn>
std::vector<MergedRange> merge_ranges(It first, It last, BeginFn begin_of,
                                      EndFn end_of, std::uint64_t merge_gap,
                                      std::uint64_t max_request) {
  std::vector<MergedRange> merged;
  for (It it = first; it != last; ++it) {
    const std::uint64_t b = begin_of(*it);
    const std::uint64_t e = end_of(*it);
    if (b == e) continue;
    if (!merged.empty() && b <= merged.back().end + merge_gap &&
        (e <= merged.back().end ||
         e - merged.back().begin <= max_request)) {
      merged.back().end = std::max(merged.back().end, e);
    } else {
      merged.push_back({b, e});
    }
  }
  return merged;
}

using SlotBounds = PendingNeighborsBatch::SlotBounds;

/// Byte range of one slot's adjacency within the value array.
std::uint64_t value_begin_bytes(const SlotBounds& s) {
  return static_cast<std::uint64_t>(s.begin) * sizeof(Vertex);
}
std::uint64_t value_end_bytes(const SlotBounds& s) {
  return static_cast<std::uint64_t>(s.end) * sizeof(Vertex);
}

/// Posts one read per merged range of `file` (range offsets relative to
/// `base`) to `scheduler`, each into its own staging buffer.
std::vector<ScheduledRead> post_reads(NvmBackingFile& file,
                                      std::uint64_t base,
                                      const std::vector<MergedRange>& ranges,
                                      IoScheduler& scheduler,
                                      ChunkCache* cache,
                                      std::uint32_t max_request_bytes,
                                      const RetryPolicy& retry) {
  std::vector<ScheduledRead> reads;
  reads.reserve(ranges.size());
  for (const MergedRange& range : ranges) {
    ScheduledRead& read = reads.emplace_back();
    read.begin = range.begin;
    read.end = range.end;
    read.staging.resize(range.end - range.begin);
    read.done = scheduler.submit_read(file, base + range.begin,
                                      std::span<std::byte>{read.staging},
                                      retry, cache, max_request_bytes);
  }
  return reads;
}

/// Waits for every read and returns the device requests they issued. All
/// reads land before the first failure is rethrown, so none is left
/// writing into staging its caller is about to free.
std::uint64_t wait_all(std::vector<ScheduledRead>& reads) {
  std::vector<IoResult> results;
  results.reserve(reads.size());
  for (ScheduledRead& read : reads) results.push_back(read.done.get());
  std::uint64_t requests = 0;
  for (const IoResult& result : results) requests += result.value_or_throw();
  return requests;
}

/// Delivers adjacencies out of one fetched value range: consumes bounds
/// (starting at `cursor`) whose byte range lies within
/// [range_begin, range_end) — empty adjacencies are cleared in passing.
void deliver_values(std::span<const SlotBounds> bounds, std::size_t& cursor,
                    std::uint64_t range_begin, std::uint64_t range_end,
                    const std::byte* staging,
                    std::vector<std::vector<Vertex>>& out) {
  while (cursor < bounds.size()) {
    const SlotBounds& sb = bounds[cursor];
    if (sb.begin == sb.end) {  // empty adjacency: no bytes to deliver
      out[sb.slot].clear();
      ++cursor;
      continue;
    }
    const std::uint64_t b = value_begin_bytes(sb);
    const std::uint64_t e = value_end_bytes(sb);
    if (b < range_begin || e > range_end) break;
    auto& adjacency = out[sb.slot];
    adjacency.resize(static_cast<std::size_t>(sb.end - sb.begin));
    std::memcpy(adjacency.data(), staging + (b - range_begin), e - b);
    ++cursor;
  }
}

}  // namespace

std::vector<SlotBounds> ExternalCsrPartition::batch_bounds(
    std::span<const Vertex> batch, std::uint32_t merge_gap_bytes,
    std::uint32_t max_request_bytes, IoScheduler& scheduler,
    const RetryPolicy& retry, std::uint64_t& requests) {
  // Sort batch slots by vertex so index reads for nearby vertices merge.
  std::vector<std::size_t> sorted_slots(batch.size());
  for (std::size_t i = 0; i < sorted_slots.size(); ++i) sorted_slots[i] = i;
  std::sort(sorted_slots.begin(), sorted_slots.end(),
            [&](std::size_t a, std::size_t b) { return batch[a] < batch[b]; });

  const auto index_byte_range = [&](std::size_t slot) {
    SEMBFS_EXPECTS(sources_.contains(batch[slot]) && !in_dram(batch[slot]));
    const auto local =
        static_cast<std::uint64_t>(batch[slot] - sources_.begin);
    return std::pair<std::uint64_t, std::uint64_t>{
        local * sizeof(std::int64_t), (local + 2) * sizeof(std::int64_t)};
  };
  const auto merged = merge_ranges(
      sorted_slots.begin(), sorted_slots.end(),
      [&](std::size_t s) { return index_byte_range(s).first; },
      [&](std::size_t s) { return index_byte_range(s).second; },
      merge_gap_bytes, max_request_bytes);

  std::vector<ScheduledRead> reads =
      post_reads(*index_file_, index_->base_offset(), merged, scheduler,
                 cache(), max_request_bytes, retry);
  requests += wait_all(reads);
  // Delivers bounds to every slot, in merged-range order.
  std::vector<SlotBounds> bounds(batch.size());
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    while (cursor < sorted_slots.size()) {
      const std::size_t slot = sorted_slots[cursor];
      const auto [b, e] = index_byte_range(slot);
      if (b < merged[i].begin || e > merged[i].end) break;
      std::int64_t pair[2];
      std::memcpy(pair, reads[i].staging.data() + (b - merged[i].begin),
                  sizeof pair);
      bounds[cursor] = {slot, pair[0], pair[1]};
      ++cursor;
    }
  }
  SEMBFS_ASSERT(cursor == sorted_slots.size());

  // Value phase consumes bounds in value-file offset order.
  std::sort(bounds.begin(), bounds.end(),
            [](const SlotBounds& a, const SlotBounds& b) {
              return a.begin < b.begin;
            });
  return bounds;
}

PendingNeighborsBatch ExternalCsrPartition::start_fetch_neighbors_batch(
    std::span<const Vertex> batch, IoScheduler& scheduler,
    const RetryPolicy& retry, std::uint32_t merge_gap_bytes,
    std::uint32_t max_request_bytes) {
  PendingNeighborsBatch pending;
  pending.valid_ = true;
  pending.batch_size_ = batch.size();
  if (batch.empty()) return pending;

  pending.bounds_ =
      batch_bounds(batch, merge_gap_bytes, max_request_bytes, scheduler,
                   retry, pending.index_requests_);
  const auto merged =
      merge_ranges(pending.bounds_.begin(), pending.bounds_.end(),
                   value_begin_bytes, value_end_bytes, merge_gap_bytes,
                   max_request_bytes);
  pending.reads_ = post_reads(*value_file_, values_->base_offset(), merged,
                              scheduler, cache(), max_request_bytes, retry);
  return pending;
}

std::uint64_t PendingNeighborsBatch::wait(
    std::vector<std::vector<Vertex>>& out) {
  SEMBFS_EXPECTS(valid_);
  valid_ = false;
  out.resize(batch_size_);
  const std::uint64_t requests = index_requests_ + wait_all(reads_);
  std::size_t cursor = 0;
  for (const ScheduledRead& read : reads_) {
    deliver_values(bounds_, cursor, read.begin, read.end,
                   read.staging.data(), out);
  }
  for (; cursor < bounds_.size(); ++cursor) {
    SEMBFS_ASSERT(bounds_[cursor].begin == bounds_[cursor].end);
    out[bounds_[cursor].slot].clear();
  }
  reads_.clear();
  bounds_.clear();
  return requests;
}

ExternalForwardGraph::ExternalForwardGraph(const ForwardGraph& forward,
                                           std::shared_ptr<NvmDevice> device,
                                           const std::string& dir,
                                           std::uint32_t chunk_bytes,
                                           ChunkFormat format,
                                           std::int64_t tier_limit)
    : vertex_partition_(forward.vertex_partition()),
      device_(device),
      chunk_bytes_(chunk_bytes),
      format_(format) {
  SEMBFS_EXPECTS(device_ != nullptr);
  device_channels_ = device_->profile().channels;
  partitions_.reserve(forward.node_count());
  for (std::size_t k = 0; k < forward.node_count(); ++k) {
    partitions_.push_back(std::make_unique<ExternalCsrPartition>(
        forward.partition(k), device_, dir, k, chunk_bytes, format,
        tier_limit));
  }
}

ExternalForwardGraph::ExternalForwardGraph(
    const ForwardGraph& forward,
    std::vector<std::shared_ptr<NvmDevice>> devices, const std::string& dir,
    std::uint32_t chunk_bytes, ChunkFormat format, std::int64_t tier_limit)
    : vertex_partition_(forward.vertex_partition()),
      device_(devices.empty() ? nullptr : devices.front()),
      chunk_bytes_(chunk_bytes),
      format_(format) {
  SEMBFS_EXPECTS(!devices.empty());
  std::vector<NvmDevice*> distinct;
  for (const auto& d : devices) distinct.push_back(d.get());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (const NvmDevice* d : distinct) device_channels_ += d->profile().channels;
  partitions_.reserve(forward.node_count());
  for (std::size_t k = 0; k < forward.node_count(); ++k) {
    partitions_.push_back(std::make_unique<ExternalCsrPartition>(
        forward.partition(k), devices, dir, k, chunk_bytes, format,
        tier_limit));
  }
}

std::uint64_t ExternalForwardGraph::nvm_byte_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->nvm_byte_size();
  return total;
}

std::uint64_t ExternalForwardGraph::dram_byte_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->dram_byte_size();
  return total;
}

std::uint64_t ExternalForwardGraph::raw_byte_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : partitions_) total += p->raw_byte_size();
  return total;
}

std::int64_t ExternalForwardGraph::entry_count() const noexcept {
  std::int64_t total = 0;
  for (const auto& p : partitions_) total += p->entry_count();
  return total;
}

ChunkCache& ExternalForwardGraph::enable_chunk_cache(
    std::size_t capacity_bytes) {
  SEMBFS_EXPECTS(capacity_bytes > 0);
  const std::lock_guard<std::mutex> lock{mutex_};
  if (cache_ == nullptr) {
    cache_ = std::make_unique<ChunkCache>(capacity_bytes, chunk_bytes_);
    cache_->set_verify_checksums(verify_checksums_,
                                 checksum_max_refetches_);
    for (auto& p : partitions_) p->attach_cache(cache_.get());
  }
  return *cache_;
}

void ExternalForwardGraph::disable_chunk_cache() {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (auto& p : partitions_) p->attach_cache(nullptr);
  cache_.reset();
}

ChunkCache* ExternalForwardGraph::chunk_cache() noexcept {
  const std::lock_guard<std::mutex> lock{mutex_};
  return cache_.get();
}

void ExternalForwardGraph::enable_checksum_verification(int max_refetches) {
  const std::lock_guard<std::mutex> lock{mutex_};
  SEMBFS_EXPECTS(cache_ != nullptr);
  if (verify_checksums_ && checksum_max_refetches_ == max_refetches) return;
  verify_checksums_ = true;
  checksum_max_refetches_ = max_refetches;
  cache_->set_verify_checksums(true, max_refetches);
  // Compressed value stores verify on their own CRCs; align their heal
  // allowance with the cache's.
  for (auto& p : partitions_) p->set_compressed_max_refetches(max_refetches);
}

void ExternalForwardGraph::disable_checksum_verification() {
  const std::lock_guard<std::mutex> lock{mutex_};
  verify_checksums_ = false;
  if (cache_ != nullptr) cache_->set_verify_checksums(false);
}

IoScheduler& ExternalForwardGraph::io_scheduler(std::size_t compute_workers) {
  const std::size_t depth = std::max(device_channels_, compute_workers);
  const std::lock_guard<std::mutex> lock{mutex_};
  if (scheduler_ == nullptr)
    scheduler_ = std::make_unique<IoScheduler>(depth);
  else
    scheduler_->grow(depth);
  return *scheduler_;
}

IoScheduler* ExternalForwardGraph::io_scheduler() noexcept {
  const std::lock_guard<std::mutex> lock{mutex_};
  return scheduler_.get();
}

}  // namespace sembfs
