// Cross-query sharing of the NVM I/O stack and the serving engine's
// client surface, hammered from many threads. These tests exist primarily
// for the TSan CI job: the serving engine makes one ChunkCache and one
// IoScheduler serve EVERY concurrent query, so data races here are
// serving-wide corruption.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "nvm/chunk_cache.hpp"
#include "util/prng.hpp"
#include "nvm/io_scheduler.hpp"
#include "nvm/storage_file.hpp"
#include "serve/engine.hpp"
#include "serve/load_gen.hpp"
#include "graph_fixtures.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class ConcurrentSharingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    file_ = std::make_unique<NvmFile>(device_, path());
    payload_.resize(256 * 1024);
    std::iota(payload_.begin(), payload_.end(), 0);
    file_->write(0, std::as_bytes(std::span<const char>{payload_}));
  }
  std::string path() const { return dir_.path() + "/shared.bin"; }

  void expect_bytes(std::span<const std::byte> got, std::uint64_t offset) {
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(static_cast<char>(got[i]), payload_[offset + i])
          << "offset=" << offset << " i=" << i;
  }

  testutil::ScopedTestDir dir_{"concurrent_sharing"};
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<NvmFile> file_;
  std::vector<char> payload_;
};

// Many reader threads share one ChunkCache over one file: every read must
// return exact file bytes regardless of concurrent insert/evict traffic.
// The cache is deliberately smaller than the file so eviction churns.
TEST_F(ConcurrentSharingTest, ChunkCacheSharedByReaderThreads) {
  ChunkCache cache{32 * 1024};  // 8 chunks for a 64-chunk file
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 200;
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Xoroshiro128 rng{derive_seed(7, static_cast<std::uint64_t>(t))};
      std::vector<std::byte> out;
      for (int i = 0; i < kReadsPerThread; ++i) {
        const std::uint64_t size = 1 + rng.next_below(12000);
        const std::uint64_t offset =
            rng.next_below(payload_.size() - size);
        out.resize(size);
        cache.read(*file_, offset, out);
        expect_bytes(out, offset);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  const ChunkCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// Several submitter threads share one IoScheduler and one ChunkCache —
// the serving engine's exact sharing shape (every query's prefetches land
// on the same scheduler/cache pair).
TEST_F(ConcurrentSharingTest, IoSchedulerAndCacheSharedBySubmitters) {
  ChunkCache cache{64 * 1024};
  IoScheduler scheduler{4};
  constexpr int kThreads = 6;
  constexpr int kReadsPerThread = 120;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Xoroshiro128 rng{derive_seed(11, static_cast<std::uint64_t>(t))};
      std::vector<std::vector<std::byte>> buffers(kReadsPerThread);
      std::vector<std::future<IoResult>> pending;
      std::vector<std::uint64_t> offsets;
      pending.reserve(kReadsPerThread);
      for (int i = 0; i < kReadsPerThread; ++i) {
        const std::uint64_t size = 64 + rng.next_below(8000);
        const std::uint64_t offset =
            rng.next_below(payload_.size() - size);
        buffers[i].resize(size);
        offsets.push_back(offset);
        pending.push_back(
            scheduler.submit_read(*file_, offset, buffers[i], RetryPolicy{},
                                  &cache));
      }
      for (int i = 0; i < kReadsPerThread; ++i) {
        const IoResult result = pending[i].get();
        if (!result.ok) {
          ++failures;
          continue;
        }
        expect_bytes(buffers[i], offsets[i]);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// The engine's client surface under contention: many threads submitting,
// waiting, polling and cancelling against one live engine. Runs under
// TSan in CI; the assertions are liveness (every query terminal) and
// accounting consistency.
TEST(ConcurrentServeTest, ManyClientsSubmitWaitCancel) {
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(9, 8, 23), pool);
  const VertexPartition partition{edges.vertex_count(), 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  const NumaTopology topology{2, 1};

  serve::EngineConfig config;
  config.queue_capacity = 64;
  serve::QueryEngine engine{storage, topology, pool, config};

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 12;
  std::atomic<int> nonterminal{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Xoroshiro128 rng{derive_seed(31, static_cast<std::uint64_t>(c))};
      for (int i = 0; i < kQueriesPerClient; ++i) {
        serve::QueryOptions options;
        options.batchable = rng.next_below(2) == 0;
        const auto root = static_cast<Vertex>(
            rng.next_below(static_cast<std::uint64_t>(edges.vertex_count())));
        const serve::QueryRef query = engine.submit(root, options);
        if (rng.next_below(4) == 0) query->cancel();  // racy on purpose
        query->wait();
        if (!query->finished()) ++nonterminal;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  engine.drain();
  EXPECT_EQ(nonterminal.load(), 0);

  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(stats.done + stats.failed + stats.cancelled +
                stats.deadline_expired + stats.rejected,
            stats.submitted);
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_EQ(stats.failed, 0u);  // DRAM-only storage cannot take I/O faults
}

// Closed-loop load generator sanity on a live engine (also the TSan
// coverage for its client threads).
TEST(ConcurrentServeTest, LoadGenReportAccounting) {
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(9, 8, 29), pool);
  const VertexPartition partition{edges.vertex_count(), 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  const NumaTopology topology{2, 1};
  serve::QueryEngine engine{storage, topology, pool, serve::EngineConfig{}};

  serve::LoadGenConfig load;
  load.clients = 4;
  load.queries_per_client = 8;
  const serve::LoadGenReport report =
      serve::run_load(engine, edges.vertex_count(), load);
  EXPECT_EQ(report.issued, 32u);
  EXPECT_EQ(report.done, 32u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
}

}  // namespace
}  // namespace sembfs
