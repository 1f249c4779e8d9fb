#include "nvm/compressed_file.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "nvm/crc32.hpp"
#include "nvm/varint.hpp"
#include "util/contracts.hpp"

namespace sembfs {

namespace {

// Build-time bulk writes go in large strides, mirroring the raw offload
// path: the chunk discipline only governs reads.
constexpr std::size_t kWriteStride = 1 << 20;

void write_strided(NvmBackingFile& file, std::uint64_t offset,
                   std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const std::size_t len = std::min(kWriteStride, data.size() - done);
    file.write(offset + done, data.subspan(done, len));
    done += len;
  }
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

}  // namespace

CompressedBlockFile::CompressedBlockFile(
    std::unique_ptr<NvmBackingFile> inner,
    std::span<const std::int64_t> values, std::uint32_t chunk_bytes)
    : inner_(std::move(inner)),
      chunk_bytes_(chunk_bytes),
      value_count_(values.size()),
      logical_bytes_(values.size() * sizeof(std::int64_t)),
      obs_raw_bytes_(&obs::metrics().counter("nvm.compressed.raw_bytes")),
      obs_encoded_bytes_(
          &obs::metrics().counter("nvm.compressed.encoded_bytes")),
      obs_decoded_chunks_(
          &obs::metrics().counter("nvm.compressed.decoded_chunks")),
      obs_checksum_failures_(
          &obs::metrics().counter("nvm.compressed.checksum_failures")),
      obs_refetches_(&obs::metrics().counter("nvm.compressed.refetches")),
      obs_decode_us_(&obs::metrics().histogram("nvm.compressed.decode_us")) {
  SEMBFS_EXPECTS(inner_ != nullptr);
  SEMBFS_EXPECTS(chunk_bytes_ > 0 && chunk_bytes_ % sizeof(std::int64_t) == 0);

  const std::uint64_t values_per_chunk = chunk_bytes_ / sizeof(std::int64_t);
  const std::uint64_t blobs =
      (value_count_ + values_per_chunk - 1) / values_per_chunk;

  // Encode every logical chunk independently so any chunk decodes without
  // its neighbors (the delta chain restarts at each chunk boundary).
  std::vector<std::byte> encoded;
  encoded.reserve(static_cast<std::size_t>(logical_bytes_ / 2));
  blob_offsets_.reserve(static_cast<std::size_t>(blobs) + 1);
  blob_lengths_.reserve(static_cast<std::size_t>(blobs));
  blob_crcs_.reserve(static_cast<std::size_t>(blobs));
  blob_offsets_.push_back(0);
  for (std::uint64_t b = 0; b < blobs; ++b) {
    const std::uint64_t first = b * values_per_chunk;
    const std::uint64_t count =
        std::min(values_per_chunk, value_count_ - first);
    const std::size_t blob_begin = encoded.size();
    encode_adjacency_block(
        values.subspan(static_cast<std::size_t>(first),
                       static_cast<std::size_t>(count)),
        encoded);
    const std::span<const std::byte> blob{encoded.data() + blob_begin,
                                          encoded.size() - blob_begin};
    blob_lengths_.push_back(static_cast<std::uint32_t>(blob.size()));
    blob_crcs_.push_back(crc32(blob));
    blob_offsets_.push_back(encoded.size());
  }

  // Serialize header + directory; the on-device image is self-describing
  // (magic carries the format version) even though this PR always rebuilds
  // the directory from DRAM at offload time.
  std::vector<std::byte> head;
  head.reserve(kHeaderBytes + blob_lengths_.size() * 8);
  for (const char c : kMagic) head.push_back(static_cast<std::byte>(c));
  put_u32(head, static_cast<std::uint32_t>(ChunkFormat::kVarint));
  put_u32(head, chunk_bytes_);
  put_u64(head, value_count_);
  put_u64(head, blobs);
  put_u64(head, kHeaderBytes);  // directory offset
  blobs_offset_ = kHeaderBytes + blobs * 8;
  put_u64(head, blobs_offset_);
  SEMBFS_ASSERT(head.size() == kHeaderBytes);
  for (std::uint64_t b = 0; b < blobs; ++b) {
    put_u32(head, blob_lengths_[static_cast<std::size_t>(b)]);
    put_u32(head, blob_crcs_[static_cast<std::size_t>(b)]);
  }

  write_strided(*inner_, 0, head);
  write_strided(*inner_, blobs_offset_, encoded);
  encoded_bytes_ = blobs_offset_ + encoded.size();

  if (obs::enabled()) {
    obs_raw_bytes_->add(logical_bytes_);
    obs_encoded_bytes_->add(encoded_bytes_);
  }
}

std::uint64_t CompressedBlockFile::block_decoded_bytes(
    std::uint64_t block) const noexcept {
  const std::uint64_t begin = block * chunk_bytes_;
  return std::min<std::uint64_t>(chunk_bytes_, logical_bytes_ - begin);
}

void CompressedBlockFile::verify_blob(std::uint64_t block,
                                      std::span<std::byte> blob) {
  const auto i = static_cast<std::size_t>(block);
  if (crc32(blob) == blob_crcs_[i]) return;
  // Detected device-side corruption (or a torn delivery): heal with
  // targeted per-blob re-reads before giving up, mirroring the raw path's
  // ChunkCache CRC heal.
  if (obs::enabled()) obs_checksum_failures_->add(1);
  const std::uint64_t device_offset = blobs_offset_ + blob_offsets_[i];
  for (int attempt = 0; attempt < max_refetches_; ++attempt) {
    inner_->record_retry();
    if (obs::enabled()) obs_refetches_->add(1);
    inner_->read(device_offset, blob);
    if (crc32(blob) == blob_crcs_[i]) return;
    if (obs::enabled()) obs_checksum_failures_->add(1);
  }
  throw NvmIoError("compressed blob " + std::to_string(block) +
                   " failed checksum verification after " +
                   std::to_string(max_refetches_) + " re-fetch(es)");
}

void CompressedBlockFile::read(std::uint64_t offset,
                               std::span<std::byte> buffer) {
  SEMBFS_EXPECTS(offset + buffer.size() <= logical_bytes_);
  if (buffer.empty()) return;

  const std::uint64_t first = offset / chunk_bytes_;
  const std::uint64_t last = (offset + buffer.size() - 1) / chunk_bytes_;
  const std::uint64_t span_begin = blob_offsets_[static_cast<std::size_t>(first)];
  const std::uint64_t span_end =
      blob_offsets_[static_cast<std::size_t>(last) + 1];

  // One device request covers every blob the logical range touches — the
  // request carries encoded bytes, which is exactly the avgrq-sz /
  // bytes-per-edge saving this format exists for.
  std::vector<std::byte> encoded(
      static_cast<std::size_t>(span_end - span_begin));
  inner_->read(blobs_offset_ + span_begin, encoded);

  const bool tracked = obs::enabled();
  std::chrono::steady_clock::time_point decode_start;
  if (tracked) decode_start = std::chrono::steady_clock::now();

  std::vector<std::int64_t> decoded(chunk_bytes_ / sizeof(std::int64_t));
  for (std::uint64_t block = first; block <= last; ++block) {
    const auto i = static_cast<std::size_t>(block);
    const std::span<std::byte> blob{
        encoded.data() + (blob_offsets_[i] - span_begin), blob_lengths_[i]};
    verify_blob(block, blob);

    const std::uint64_t block_bytes = block_decoded_bytes(block);
    const std::uint64_t block_values = block_bytes / sizeof(std::int64_t);
    decode_adjacency_block(
        blob, std::span<std::int64_t>{decoded.data(),
                                      static_cast<std::size_t>(block_values)});

    // Copy the overlap of this decoded chunk with the requested range.
    const std::uint64_t block_begin = block * chunk_bytes_;
    const std::uint64_t copy_begin = std::max(block_begin, offset);
    const std::uint64_t copy_end =
        std::min(block_begin + block_bytes, offset + buffer.size());
    SEMBFS_ASSERT(copy_begin < copy_end);
    std::memcpy(
        buffer.data() + (copy_begin - offset),
        reinterpret_cast<const std::byte*>(decoded.data()) +
            (copy_begin - block_begin),
        static_cast<std::size_t>(copy_end - copy_begin));
  }

  if (tracked) {
    obs_decoded_chunks_->add(last - first + 1);
    obs_decode_us_->record(static_cast<std::uint64_t>(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      decode_start)
            .count() *
        1e6));
  }
}

void CompressedBlockFile::write(std::uint64_t /*offset*/,
                                std::span<const std::byte> /*buffer*/) {
  SEMBFS_EXPECTS(false && "CompressedBlockFile is sealed after build");
}

}  // namespace sembfs
