// Compressed on-NVM adjacency chunks: the delta/zigzag/varint codec, the
// CompressedBlockFile virtual backing store (layout, arbitrary-range
// reads, CRC heal), and the format-oblivious ExternalCsrPartition reader
// stack on top of it.
#include "nvm/compressed_file.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <random>

#include "graph/external_csr.hpp"
#include "graph_fixtures.hpp"
#include "nvm/varint.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

// ---------------------------------------------------------------- codec --

TEST(VarintCodecTest, ZigzagInterleavesSigns) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  EXPECT_EQ(zigzag_encode(2), 4u);
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()})
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
}

TEST(VarintCodecTest, BlockRoundTripArbitraryValues) {
  std::mt19937_64 rng{7};
  std::vector<std::int64_t> values;
  for (int i = 0; i < 2000; ++i) {
    // Mix magnitudes so every varint length from 1 to 10 bytes occurs.
    // The difference is taken in uint64_t: wrapping there is defined, and
    // the conversion back keeps both signs and every magnitude.
    const int bits = static_cast<int>(rng() % 64);
    const std::uint64_t a = rng() >> bits;
    const std::uint64_t b = rng() >> bits;
    values.push_back(static_cast<std::int64_t>(a - b));
  }
  std::vector<std::byte> encoded;
  encode_adjacency_block(values, encoded);
  std::vector<std::int64_t> decoded(values.size());
  decode_adjacency_block(encoded, decoded);
  EXPECT_EQ(decoded, values);
}

TEST(VarintCodecTest, SortedRunsEncodeSmall) {
  // A sorted neighbor run (relabel.cpp sorts post-relabel) has small
  // deltas: 1-2 encoded bytes where raw storage spends 8.
  std::vector<std::int64_t> run;
  std::mt19937_64 rng{11};
  std::int64_t v = 1'000'000;
  for (int i = 0; i < 4096; ++i) run.push_back(v += 1 + rng() % 100);
  std::vector<std::byte> encoded;
  encode_adjacency_block(run, encoded);
  EXPECT_LE(encoded.size() * 4, run.size() * sizeof(std::int64_t));
  std::vector<std::int64_t> decoded(run.size());
  decode_adjacency_block(encoded, decoded);
  EXPECT_EQ(decoded, run);
}

TEST(VarintCodecTest, TruncatedStreamThrows) {
  std::vector<std::byte> encoded;
  encode_adjacency_block(std::vector<std::int64_t>{1, 1 << 20, -5}, encoded);
  std::vector<std::int64_t> out(3);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    const std::span<const std::byte> partial{encoded.data(), cut};
    EXPECT_THROW(decode_adjacency_block(partial, out), NvmIoError)
        << "cut=" << cut;
  }
}

TEST(VarintCodecTest, TrailingBytesThrow) {
  std::vector<std::byte> encoded;
  encode_adjacency_block(std::vector<std::int64_t>{1, 2, 3}, encoded);
  encoded.push_back(std::byte{0});
  std::vector<std::int64_t> out(3);
  EXPECT_THROW(decode_adjacency_block(encoded, out), NvmIoError);
}

TEST(VarintCodecTest, OverlongVarintThrows) {
  // Eleven continuation bytes: no legal int64 needs more than ten.
  std::vector<std::byte> bad(11, std::byte{0xff});
  std::size_t pos = 0;
  EXPECT_THROW(decode_varint(bad, pos), NvmIoError);
}

// --------------------------------------------------- CompressedBlockFile --

class CompressedBlockFileTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kChunk = 512;  // 64 values per chunk

  void SetUp() override {
    // Sorted-run-like payload with a non-chunk-multiple tail so the last
    // blob decodes fewer values than the others.
    std::mt19937_64 rng{3};
    std::int64_t v = 0;
    for (int i = 0; i < 64 * 37 + 13; ++i)
      values_.push_back(v += static_cast<std::int64_t>(rng() % 64));
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    file_ = std::make_unique<CompressedBlockFile>(
        std::make_unique<NvmFile>(device_, dir_.path() + "/values"), values_,
        kChunk);
  }

  [[nodiscard]] std::span<const std::byte> raw_bytes() const noexcept {
    return std::as_bytes(std::span{values_});
  }
  /// Device offset of blob 0 (header + directory precede the blob region).
  [[nodiscard]] std::uint64_t blobs_offset() const noexcept {
    return CompressedBlockFile::kHeaderBytes + file_->blob_count() * 8;
  }

  testutil::ScopedTestDir dir_{"cbf"};
  std::vector<std::int64_t> values_;
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<CompressedBlockFile> file_;
};

TEST_F(CompressedBlockFileTest, SizesAndRatio) {
  EXPECT_EQ(file_->size(), values_.size() * sizeof(std::int64_t));
  EXPECT_EQ(file_->raw_byte_size(), file_->size());
  EXPECT_EQ(file_->blob_count(), (values_.size() + 63) / 64);
  // Small sorted deltas: even with header + directory overhead the store
  // must stay under half the raw footprint (the PR's acceptance shape).
  EXPECT_LE(file_->encoded_byte_size() * 2, file_->raw_byte_size());
}

TEST_F(CompressedBlockFileTest, ArbitraryRangesMatchRawBytes) {
  const std::span<const std::byte> raw = raw_bytes();
  struct Range {
    std::uint64_t offset, length;
  };
  const Range ranges[] = {
      {0, kChunk},                       // exactly blob 0
      {0, raw.size()},                   // whole store
      {kChunk, 3 * kChunk},              // aligned multi-chunk
      {kChunk - 8, 16},                  // straddles a chunk boundary
      {17, 1},                           // single unaligned byte
      {5 * kChunk + 3, 2 * kChunk + 9},  // unaligned both ends
      {raw.size() - 40, 40},             // tail blob, short decode
      {raw.size() - 1, 1},               // last byte
  };
  for (const Range& r : ranges) {
    std::vector<std::byte> got(static_cast<std::size_t>(r.length));
    file_->read(r.offset, got);
    ASSERT_EQ(std::memcmp(got.data(), raw.data() + r.offset, got.size()), 0)
        << "offset=" << r.offset << " length=" << r.length;
  }
}

TEST_F(CompressedBlockFileTest, RangeReadIsOneDeviceRequest) {
  device_->stats().reset();
  std::vector<std::byte> buffer(4 * kChunk);
  file_->read(kChunk, buffer);  // four blobs covered
  EXPECT_EQ(device_->stats().request_count(), 1u);
  // The request carried encoded bytes: strictly less than the decoded span.
  EXPECT_LT(device_->stats().byte_count(), buffer.size());
}

TEST_F(CompressedBlockFileTest, TransientCorruptionHealsByRefetch) {
  obs::metrics().reset();
  obs::set_enabled(true);
  // Pick a seed whose fault sequence corrupts the first read but leaves
  // the corrective re-fetch (sequence index 1) clean — deterministic for
  // the chosen plan, no matter how decide() hashes.
  FaultPlan plan;
  plan.corruption_rate = 0.6;
  for (plan.seed = 1;; ++plan.seed)
    if (plan.decide(0).corrupt && !plan.decide(1).corrupt) break;
  device_->set_fault_plan(plan);

  std::vector<std::byte> got(kChunk);
  file_->read(0, got);  // first read corrupt -> CRC mismatch -> re-fetch
  device_->clear_fault_plan();
  obs::set_enabled(false);

  EXPECT_EQ(std::memcmp(got.data(), raw_bytes().data(), got.size()), 0);
  EXPECT_EQ(obs::metrics().counter("nvm.compressed.checksum_failures").value(),
            1u);
  EXPECT_EQ(obs::metrics().counter("nvm.compressed.refetches").value(), 1u);
  EXPECT_EQ(device_->stats().retry_count(), 1u);
}

TEST_F(CompressedBlockFileTest, PersistentCorruptionExhaustsHeal) {
  // Flip one stored blob byte in place: every re-fetch re-reads the same
  // bad byte, so healing must give up with NvmIoError instead of looping.
  std::byte original{};
  file_->inner().read(blobs_offset(), {&original, 1});
  const std::byte flipped = original ^ std::byte{0x40};
  file_->inner().write(blobs_offset(), {&flipped, 1});
  std::vector<std::byte> got(kChunk);
  EXPECT_THROW(file_->read(0, got), NvmIoError);

  // Undoing the flip restores readability — proving the failure above was
  // the corruption, not store state poisoned by the failed read.
  file_->inner().write(blobs_offset(), {&original, 1});
  file_->read(0, got);
  EXPECT_EQ(std::memcmp(got.data(), raw_bytes().data(), got.size()), 0);
}

TEST_F(CompressedBlockFileTest, ZeroRefetchesFailsImmediately) {
  file_->set_max_refetches(0);
  std::byte b{};
  file_->inner().read(blobs_offset(), {&b, 1});
  b ^= std::byte{1};
  file_->inner().write(blobs_offset(), {&b, 1});
  device_->stats().reset();
  std::vector<std::byte> got(kChunk);
  EXPECT_THROW(file_->read(0, got), NvmIoError);
  EXPECT_EQ(device_->stats().retry_count(), 0u);
}

using CompressedBlockFileDeathTest = CompressedBlockFileTest;

TEST_F(CompressedBlockFileDeathTest, WriteViolatesSealedContract) {
  const std::byte b{0};
  EXPECT_DEATH(file_->write(0, {&b, 1}), "sealed");
}

// ------------------------------------------- reader stack on varint files --

class CompressedExternalCsrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = generate_kronecker(fixtures::small_kronecker(9, 8, 5), pool_);
    partition_ = VertexPartition{edges_.vertex_count(), 2};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    external_ = std::make_unique<ExternalForwardGraph>(
        forward_, device_, dir_.path(), /*chunk_bytes=*/4096u, ChunkFormat::kVarint);
  }

  ThreadPool pool_{4};
  testutil::ScopedTestDir dir_{"cext"};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<ExternalForwardGraph> external_;
};

TEST_F(CompressedExternalCsrTest, NeighborsMatchDramCopy) {
  std::vector<Vertex> scratch;
  for (std::size_t k = 0; k < external_->node_count(); ++k) {
    ExternalCsrPartition& ext = external_->partition(k);
    ASSERT_EQ(ext.format(), ChunkFormat::kVarint);
    ASSERT_NE(ext.compressed_values(), nullptr);
    const Csr& dram = forward_.partition(k);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
      ext.fetch_neighbors(v, scratch);
      const auto expected = dram.neighbors(v);
      ASSERT_EQ(scratch.size(), expected.size()) << "v=" << v;
      for (std::size_t i = 0; i < scratch.size(); ++i)
        ASSERT_EQ(scratch[i], expected[i]);
    }
  }
}

TEST_F(CompressedExternalCsrTest, BatchedFetchMatchesRawFormat) {
  ExternalForwardGraph raw{forward_, device_, dir_.aux("_raw")};
  IoScheduler scheduler{4};
  std::vector<Vertex> batch;
  for (Vertex v = 0; v < edges_.vertex_count(); v += 3) batch.push_back(v);
  for (std::size_t k = 0; k < external_->node_count(); ++k) {
    std::vector<std::vector<Vertex>> varint_out, raw_out;
    external_->partition(k)
        .start_fetch_neighbors_batch(batch, scheduler)
        .wait(varint_out);
    raw.partition(k).start_fetch_neighbors_batch(batch, scheduler).wait(
        raw_out);
    EXPECT_EQ(varint_out, raw_out) << "partition " << k;
  }
}

TEST_F(CompressedExternalCsrTest, FootprintBeatsRawByTwoX) {
  const std::uint64_t raw = external_->raw_byte_size();
  const std::uint64_t stored = external_->nvm_byte_size();
  // Index files stay raw, so the 2x bound on the TOTAL is strictly harder
  // than the value-file-only bound the bench reports.
  EXPECT_LE(stored * 2, raw)
      << "compression ratio " << static_cast<double>(raw) / stored;
}

TEST_F(CompressedExternalCsrTest, CacheFillDecodesEachChunkOnce) {
  obs::metrics().reset();
  obs::set_enabled(true);
  external_->enable_chunk_cache(8u << 20);  // everything fits
  std::vector<Vertex> scratch;
  ExternalCsrPartition& ext = external_->partition(0);
  Vertex v = ext.source_range().begin;
  while (v < ext.source_range().end && forward_.partition(0).degree(v) == 0)
    ++v;
  ASSERT_LT(v, ext.source_range().end);

  ext.fetch_neighbors(v, scratch);
  const std::uint64_t decoded_after_miss =
      obs::metrics().counter("nvm.compressed.decoded_chunks").value();
  EXPECT_GT(decoded_after_miss, 0u);
  const std::uint64_t requests_after_miss = device_->stats().request_count();

  // A repeat fetch is served from the cache: no device request and no
  // second decode of the same chunks.
  std::vector<Vertex> again;
  ext.fetch_neighbors(v, again);
  obs::set_enabled(false);
  EXPECT_EQ(again, scratch);
  EXPECT_EQ(obs::metrics().counter("nvm.compressed.decoded_chunks").value(),
            decoded_after_miss);
  EXPECT_EQ(device_->stats().request_count(), requests_after_miss);
}

}  // namespace
}  // namespace sembfs
