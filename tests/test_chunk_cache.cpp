#include "nvm/chunk_cache.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "nvm/crc32.hpp"
#include "nvm/storage_file.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class ChunkCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    file_ = std::make_unique<NvmFile>(device_, path());
    payload_.resize(64 * 1024 + 100);  // deliberately not chunk-aligned
    std::iota(payload_.begin(), payload_.end(), 0);
    file_->write(0, std::as_bytes(std::span<const char>{payload_}));
    device_->stats().reset();
  }
  std::string path() const { return dir_.path() + "/cache.bin"; }

  void expect_bytes(std::span<const std::byte> got, std::uint64_t offset) {
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(static_cast<char>(got[i]), payload_[offset + i])
          << "offset=" << offset << " i=" << i;
  }

  testutil::ScopedTestDir dir_{"chunk_cache"};
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<NvmFile> file_;
  std::vector<char> payload_;
};

TEST_F(ChunkCacheTest, ReadThroughReturnsFileBytes) {
  ChunkCache cache{1 << 20};
  std::vector<std::byte> out(10000);
  cache.read(*file_, 100, out);
  expect_bytes(out, 100);
}

TEST_F(ChunkCacheTest, SecondReadIsAllHitsAndNoDeviceRequests) {
  ChunkCache cache{1 << 20};
  std::vector<std::byte> out(10000);
  const std::uint64_t cold = cache.read(*file_, 0, out);
  EXPECT_GT(cold, 0u);
  EXPECT_EQ(device_->stats().request_count(), cold);

  const std::uint64_t warm = cache.read(*file_, 0, out);
  EXPECT_EQ(warm, 0u);
  EXPECT_EQ(device_->stats().request_count(), cold);  // unchanged
  expect_bytes(out, 0);

  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);  // ceil(10000/4096) cold chunks
  EXPECT_EQ(stats.hits, 3u);    // same chunks warm
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST_F(ChunkCacheTest, StrictDisciplineIssuesOneRequestPerMissingChunk) {
  ChunkCache cache{1 << 20};
  std::vector<std::byte> out(3 * 4096);
  // max_miss_request_bytes = 0: each missing chunk is its own request.
  EXPECT_EQ(cache.read(*file_, 0, out, 0), 3u);
  EXPECT_EQ(device_->stats().request_count(), 3u);
}

TEST_F(ChunkCacheTest, MissRunsMergeUpToCap) {
  ChunkCache cache{1 << 20};
  std::vector<std::byte> out(4 * 4096);
  // All four chunks missing and the cap covers them: one merged request.
  EXPECT_EQ(cache.read(*file_, 0, out, 1 << 20), 1u);
  EXPECT_EQ(device_->stats().request_count(), 1u);
  expect_bytes(out, 0);

  // A cap of two chunks splits the next four-chunk cold range in two.
  std::vector<std::byte> out2(4 * 4096);
  EXPECT_EQ(cache.read(*file_, 4 * 4096, out2, 2 * 4096), 2u);
  expect_bytes(out2, 4 * 4096);
}

TEST_F(ChunkCacheTest, PartialHitFetchesOnlyMissingChunks) {
  ChunkCache cache{1 << 20};
  std::vector<std::byte> mid(4096);
  cache.read(*file_, 4096, mid);  // warm chunk 1
  device_->stats().reset();

  std::vector<std::byte> out(3 * 4096);  // chunks 0,1,2 — chunk 1 cached
  EXPECT_EQ(cache.read(*file_, 0, out, 1 << 20), 2u);
  EXPECT_EQ(device_->stats().request_count(), 2u);
  expect_bytes(out, 0);
}

TEST_F(ChunkCacheTest, UnalignedReadsAreServedFromAlignedChunks) {
  ChunkCache cache{1 << 20};
  std::vector<std::byte> out(5000);
  cache.read(*file_, 4090, out);  // straddles chunks 0..2 mid-chunk
  expect_bytes(out, 4090);

  // The same bytes via a different unaligned window: full hit.
  std::vector<std::byte> out2(100);
  EXPECT_EQ(cache.read(*file_, 8000, out2), 0u);
  expect_bytes(out2, 8000);
}

TEST_F(ChunkCacheTest, TailChunkShorterThanChunkSize) {
  ChunkCache cache{1 << 20};
  const std::uint64_t tail_offset = payload_.size() - 50;
  std::vector<std::byte> out(50);
  cache.read(*file_, tail_offset, out);
  expect_bytes(out, tail_offset);
  EXPECT_EQ(cache.read(*file_, tail_offset, out), 0u);  // warm
  expect_bytes(out, tail_offset);
}

TEST_F(ChunkCacheTest, EvictsWhenCapacityExceeded) {
  // Room for 4 chunks (one per shard); the file holds 17.
  ChunkCache cache{4 * 4096, 4096, 4};
  EXPECT_EQ(cache.slot_count(), 4u);
  std::vector<std::byte> out(4096);
  for (std::uint64_t c = 0; c * 4096 < payload_.size() - 4096; ++c) {
    cache.read(*file_, c * 4096, out);
    expect_bytes(out, c * 4096);
  }
  const ChunkCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, stats.misses);
  // Evicted chunks still read correctly (back through the device).
  cache.read(*file_, 0, out);
  expect_bytes(out, 0);
}

TEST_F(ChunkCacheTest, ClearDropsEverything) {
  ChunkCache cache{1 << 20};
  std::vector<std::byte> out(8192);
  const std::uint64_t cold = cache.read(*file_, 0, out);
  cache.clear();
  EXPECT_EQ(cache.read(*file_, 0, out), cold);  // cold again
}

TEST_F(ChunkCacheTest, DistinguishesFiles) {
  const std::string other_path = path() + ".other";
  remove_file_if_exists(other_path);
  NvmFile other{device_, other_path};
  std::vector<char> other_payload(8192, 'x');
  other.write(0, std::as_bytes(std::span<const char>{other_payload}));

  ChunkCache cache{1 << 20};
  std::vector<std::byte> out(4096);
  cache.read(*file_, 0, out);
  // Same offset, different file: must not serve file_'s chunk.
  EXPECT_GT(cache.read(other, 0, out), 0u);
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(static_cast<char>(out[i]), 'x');
  remove_file_if_exists(other_path);
}

TEST_F(ChunkCacheTest, ChecksumDetectsPersistentCorruptionAndThrows) {
  file_->record_chunk_crcs(std::as_bytes(std::span<const char>{payload_}),
                           4096);

  // Damage the backing store itself (a torn write, not a transient device
  // glitch): every re-fetch sees the same wrong byte.
  const char bad = static_cast<char>(payload_[5000] ^ 0x40);
  file_->write(5000, std::as_bytes(std::span<const char>{&bad, 1}));

  ChunkCache cache{1 << 20};
  cache.set_verify_checksums(true, /*max_refetches=*/2);
  std::vector<std::byte> out(3 * 4096);  // chunks 0..2; byte 5000 is chunk 1
  EXPECT_THROW(cache.read(*file_, 0, out), NvmIoError);

  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.checksum_failures, 3u);  // initial + 2 failed re-fetches
  EXPECT_EQ(stats.refetches, 2u);
}

TEST_F(ChunkCacheTest, ChecksumHealsTransientDeviceCorruption) {
  file_->record_chunk_crcs(std::as_bytes(std::span<const char>{payload_}),
                           4096);

  // A plan whose fault sequence corrupts read #0 but not read #1: the
  // cold fetch delivers a flipped byte, the corrective re-fetch is clean.
  FaultPlan plan;
  plan.corruption_rate = 0.5;
  for (plan.seed = 1;
       !(plan.decide(0).corrupt && !plan.decide(1).corrupt); ++plan.seed) {
  }
  device_->set_fault_plan(plan);

  ChunkCache cache{1 << 20};
  cache.set_verify_checksums(true, /*max_refetches=*/1);
  std::vector<std::byte> out(4096);  // one chunk = one faulted device read
  const std::uint64_t requests = cache.read(*file_, 0, out);
  expect_bytes(out, 0);  // healed: the caller never sees the flip
  EXPECT_EQ(requests, 2u);  // cold fetch + corrective re-fetch

  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.refetches, 1u);

  // The healed chunk was inserted; the warm read is clean and free.
  device_->clear_fault_plan();
  EXPECT_EQ(cache.read(*file_, 0, out), 0u);
  expect_bytes(out, 0);
}

TEST_F(ChunkCacheTest, UnrecordedChunksAreDeliveredUnverified) {
  // A verifying cache must not reject (or re-fetch) chunks of a file that
  // recorded no CRCs — a varint store's blobs carry their own.
  ChunkCache cache{1 << 20};
  cache.set_verify_checksums(true);
  std::vector<std::byte> out(8192);
  cache.read(*file_, 0, out);
  expect_bytes(out, 0);
  const ChunkCacheStats stats = cache.stats();
  EXPECT_EQ(stats.checksum_failures, 0u);
  EXPECT_EQ(stats.refetches, 0u);
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span<const char>{check})), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST_F(ChunkCacheTest, ConcurrentReadersSeeConsistentData) {
  ChunkCache cache{8 * 4096, 4096, 4};  // small: forces races on eviction
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte> out;
      for (int i = 0; i < kIters; ++i) {
        const std::uint64_t offset =
            ((t * 977 + i * 131) % 60) * 1024;  // overlapping windows
        out.resize(1024 + (i % 3) * 512);
        cache.read(*file_, offset, out,
                   i % 2 == 0 ? 0 : std::uint64_t{1} << 16);
        for (std::size_t j = 0; j < out.size(); ++j) {
          if (static_cast<char>(out[j]) != payload_[offset + j]) {
            ok.store(false);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok.load());
  const ChunkCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace sembfs
