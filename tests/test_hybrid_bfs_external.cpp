// Semi-external correctness: BFS with the forward graph on a simulated NVM
// device (and/or the backward graph partially offloaded) must produce
// exactly the reference levels, while generating device traffic only in
// top-down levels (resp. bottom-up overflow reads).
#include "engine/bfs_program.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <latch>
#include <thread>

#include "bfs/reference_bfs.hpp"
#include "graph_fixtures.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class ExternalBfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = generate_kronecker(fixtures::small_kronecker(10, 8, 31), pool_);
    partition_ = VertexPartition{edges_.vertex_count(), 4};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    full_ = build_csr(edges_, CsrBuildOptions{}, pool_);
    root_ = 0;
    while (full_.degree(root_) == 0) ++root_;
  }
  DeviceProfile fast_profile(const char* base) const {
    DeviceProfile p = DeviceProfile::by_name(base);
    p.time_scale = 0.001;  // keep simulated delays negligible in tests
    return p;
  }

  ThreadPool pool_{4};
  testutil::ScopedTestDir dir_{"extbfs"};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  BackwardGraph backward_;
  Csr full_;
  Vertex root_ = 0;
};

TEST_F(ExternalBfsTest, ExternalForwardMatchesReference) {
  for (const char* profile : {"dram", "pcie_flash", "sata_ssd"}) {
    auto device = std::make_shared<NvmDevice>(fast_profile(profile));
    ExternalForwardGraph external{forward_, device, dir_.path()};
    GraphStorage storage;
    storage.forward = &external;
    storage.backward = &backward_;
    HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

    const BfsResult result = runner.run(root_, BfsConfig{});
    const ReferenceBfsResult ref = reference_bfs(full_, root_);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v])
          << "profile=" << profile << " v=" << v;
  }
}

TEST_F(ExternalBfsTest, TopDownOnlyGeneratesNvmTraffic) {
  auto device = std::make_shared<NvmDevice>(fast_profile("pcie_flash"));
  ExternalForwardGraph external{forward_, device, dir_.path()};
  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward_;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};
  device->stats().reset();

  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;
  const BfsResult result = runner.run(root_, config);
  EXPECT_GT(result.nvm_requests, 0u);
  EXPECT_EQ(device->stats().request_count(), result.nvm_requests);
  // Every level reports its own device requests.
  std::uint64_t per_level = 0;
  for (const LevelStats& ls : result.levels) per_level += ls.nvm_requests;
  EXPECT_EQ(per_level, result.nvm_requests);
}

TEST_F(ExternalBfsTest, HybridMinimizesNvmTrafficVsTopDownOnly) {
  // The paper's core claim: with well-chosen alpha/beta, the hybrid rarely
  // touches the (slow) forward graph.
  auto device = std::make_shared<NvmDevice>(fast_profile("pcie_flash"));
  ExternalForwardGraph external{forward_, device, dir_.path()};
  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward_;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

  BfsConfig top_down;
  top_down.mode = BfsMode::TopDownOnly;
  const std::uint64_t td_requests =
      runner.run(root_, top_down).nvm_requests;

  BfsConfig hybrid;
  hybrid.policy.alpha = 1e6;  // switch to bottom-up aggressively
  hybrid.policy.beta = 1e6;
  const std::uint64_t hybrid_requests =
      runner.run(root_, hybrid).nvm_requests;

  EXPECT_LT(hybrid_requests, td_requests / 2);
}

TEST_F(ExternalBfsTest, BottomUpOnlyTouchesNoForwardNvm) {
  auto device = std::make_shared<NvmDevice>(fast_profile("dram"));
  ExternalForwardGraph external{forward_, device, dir_.path()};
  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward_;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};
  device->stats().reset();

  BfsConfig config;
  config.mode = BfsMode::BottomUpOnly;
  const BfsResult result = runner.run(root_, config);
  EXPECT_EQ(result.nvm_requests, 0u);
  EXPECT_EQ(device->stats().request_count(), 0u);
  const ReferenceBfsResult ref = reference_bfs(full_, root_);
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]);
}

TEST_F(ExternalBfsTest, HybridBackwardOffloadMatchesReference) {
  auto device = std::make_shared<NvmDevice>(fast_profile("dram"));
  for (const std::int64_t cap : {0, 2, 8, 32}) {
    HybridBackwardGraph hybrid_backward{backward_, cap, device,
                                        dir_.aux(std::to_string(cap))};
    GraphStorage storage;
    storage.forward = &forward_;
    storage.backward = &hybrid_backward;
    HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

    const BfsResult result = runner.run(root_, BfsConfig{});
    const ReferenceBfsResult ref = reference_bfs(full_, root_);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v]) << "cap=" << cap;
  }
}

TEST_F(ExternalBfsTest, BackwardOffloadAccessRatioDropsWithBiggerCap) {
  // Figure 14's monotonicity: more DRAM edges per vertex -> smaller share
  // of backward-graph accesses hitting NVM.
  auto device = std::make_shared<NvmDevice>(fast_profile("dram"));
  double prev_ratio = 1.1;
  for (const std::int64_t cap : {2, 8, 32}) {
    const std::string name = std::string{"r"}.append(std::to_string(cap));
    HybridBackwardGraph hybrid_backward{backward_, cap, device,
                                        dir_.aux(name)};
    GraphStorage storage;
    storage.forward = &forward_;
    storage.backward = &hybrid_backward;
    HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};
    BfsConfig config;
    config.policy.alpha = 1e6;  // mostly bottom-up
    config.policy.beta = 1e6;
    runner.run(root_, config);

    const double nvm =
        static_cast<double>(hybrid_backward.nvm_edges_examined());
    const double total =
        nvm + static_cast<double>(hybrid_backward.dram_edges_examined());
    ASSERT_GT(total, 0.0);
    const double ratio = nvm / total;
    EXPECT_LT(ratio, prev_ratio) << "cap=" << cap;
    prev_ratio = ratio;
  }
}

// Every read of the backward graph's NVM tail reaches the result: a
// bottom-up-only run over a cap-0 hybrid backward graph (every in-edge on
// NVM) reports exactly the requests the device served, level by level.
TEST_F(ExternalBfsTest, HybridBackwardReadsReachNvmRequests) {
  auto device = std::make_shared<NvmDevice>(fast_profile("dram"));
  HybridBackwardGraph hybrid_backward{backward_, 0, device, dir_.path(),
                                      4096, ChunkFormat::kRaw};
  GraphStorage storage;
  storage.forward = &forward_;
  storage.backward = &hybrid_backward;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};
  BfsConfig config;
  config.mode = BfsMode::BottomUpOnly;

  const std::uint64_t before = device->stats().snapshot().requests;
  const BfsResult result = runner.run(root_, config);
  const std::uint64_t served = device->stats().snapshot().requests - before;

  EXPECT_GT(result.nvm_requests, 0u);
  EXPECT_EQ(result.nvm_requests, served);
  std::uint64_t per_level = 0;
  for (const LevelStats& level : result.levels) per_level += level.nvm_requests;
  EXPECT_EQ(per_level, result.nvm_requests);
  const ReferenceBfsResult ref = reference_bfs(full_, root_);
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]);
}

TEST_F(ExternalBfsTest, FullyExternalBothSidesStillCorrect) {
  auto device = std::make_shared<NvmDevice>(fast_profile("pcie_flash"));
  ExternalForwardGraph external{forward_, device, dir_.aux("f")};
  HybridBackwardGraph hybrid_backward{backward_, 4, device, dir_.aux("b")};
  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &hybrid_backward;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

  const BfsResult result = runner.run(root_, BfsConfig{});
  const ReferenceBfsResult ref = reference_bfs(full_, root_);
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]);
}

TEST_F(ExternalBfsTest, AsyncPrefetchAndChunkCacheMatchReference) {
  // The scheduler-fed read path must leave the traversal untouched, with
  // and without the chunk cache underneath it.
  const ReferenceBfsResult ref = reference_bfs(full_, root_);
  for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{4} << 20}) {
    auto device = std::make_shared<NvmDevice>(fast_profile("pcie_flash"));
    ExternalForwardGraph external{forward_, device, dir_.aux("a")};
    GraphStorage storage;
    storage.forward = &external;
    storage.backward = &backward_;
    HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

    BfsConfig config;
    config.mode = BfsMode::TopDownOnly;  // maximize the external path
    config.chunk_cache_bytes = cache_bytes;
    const BfsResult result = runner.run(root_, config);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v])
          << "cache=" << cache_bytes << " v=" << v;
  }
}

TEST_F(ExternalBfsTest, ChunkCacheCutsDeviceRequests) {
  auto device = std::make_shared<NvmDevice>(fast_profile("pcie_flash"));
  ExternalForwardGraph external{forward_, device, dir_.path()};
  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward_;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

  BfsConfig off;
  off.mode = BfsMode::TopDownOnly;
  const std::uint64_t cache_off = runner.run(root_, off).nvm_requests;

  BfsConfig on = off;
  on.chunk_cache_bytes = 16 << 20;
  const std::uint64_t cold = runner.run(root_, on).nvm_requests;
  EXPECT_LE(cold, cache_off);  // intra-run reuse already helps

  // Second run against the warm cache: the hub chunks never hit the device.
  const std::uint64_t warm = runner.run(root_, on).nvm_requests;
  EXPECT_LT(warm, cache_off / 2);
  const ChunkCache* cache = external.chunk_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->stats().hit_rate(), 0.5);
}

TEST_F(ExternalBfsTest, AsyncPrefetchKeepsRequestAccountingExact) {
  auto device = std::make_shared<NvmDevice>(fast_profile("pcie_flash"));
  ExternalForwardGraph external{forward_, device, dir_.path()};
  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward_;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};
  device->stats().reset();

  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;
  const BfsResult result = runner.run(root_, config);
  EXPECT_GT(result.nvm_requests, 0u);
  EXPECT_EQ(device->stats().request_count(), result.nvm_requests);
  const IoScheduler* scheduler = external.io_scheduler();
  ASSERT_NE(scheduler, nullptr);
  // Sized from the device: pcie_flash has 32 channels, more than the
  // 4 compute workers.
  EXPECT_EQ(scheduler->queue_depth(), 32u);
  const IoSchedulerStats sched_stats = scheduler->stats();
  EXPECT_GT(sched_stats.submitted, 0u);
  EXPECT_EQ(sched_stats.submitted, sched_stats.completed);
}

// Four compute workers on the 8-channel sata_ssd model: the default read
// path must keep more than four reads at the device at once. A path with
// one synchronous read per worker could never queue more than four.
TEST_F(ExternalBfsTest, DefaultPathKeepsMoreReadsInFlightThanWorkers) {
  // Full-length service times: every request sleeps (shorter ones spin,
  // which would compete with the compute workers for the cores).
  DeviceProfile profile = DeviceProfile::sata_ssd();
  profile.time_scale = 1.0;
  ASSERT_EQ(profile.channels, 8u);
  auto device = std::make_shared<NvmDevice>(profile);
  ExternalForwardGraph external{forward_, device, dir_.path()};
  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward_;
  ASSERT_EQ(pool_.size(), 4u);
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

  Vertex hub = 0;
  for (Vertex v = 1; v < edges_.vertex_count(); ++v)
    if (full_.degree(v) > full_.degree(hub)) hub = v;
  device->stats().reset();
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;
  const BfsResult result = runner.run(hub, config);
  EXPECT_GT(device->stats().snapshot().peak_in_flight, 4u);
  ASSERT_NE(external.io_scheduler(), nullptr);
  EXPECT_EQ(external.io_scheduler()->queue_depth(), 8u);

  const ReferenceBfsResult ref = reference_bfs(full_, hub);
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]) << "v=" << v;
}

// Regression: traversals sharing one graph used to race in
// prepare_external_storage, which replaced the chunk cache (and the I/O
// scheduler) under the other traversals' reads — a heap-use-after-free in
// ChunkCache::read under ASan. Both are now created once per graph. Each
// round starts a fresh graph so every round races on the creation.
TEST_F(ExternalBfsTest, ConcurrentTraversalsShareOneGraph) {
  constexpr int kThreads = 3;
  constexpr int kRounds = 4;
  const ReferenceBfsResult ref = reference_bfs(full_, root_);
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;
  config.chunk_cache_bytes = 1 << 20;

  for (int round = 0; round < kRounds; ++round) {
    auto device = std::make_shared<NvmDevice>(fast_profile("pcie_flash"));
    const std::string name = std::string{"c"}.append(std::to_string(round));
    ExternalForwardGraph external{forward_, device, dir_.aux(name)};
    GraphStorage storage;
    storage.forward = &external;
    storage.backward = &backward_;

    std::vector<std::vector<std::int32_t>> levels(kThreads);
    std::latch start{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ThreadPool pool{2};
        HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool};
        start.arrive_and_wait();
        for (int run = 0; run < 2; ++run)
          levels[t] = runner.run(root_, config).level;
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (int t = 0; t < kThreads; ++t)
      for (Vertex v = 0; v < edges_.vertex_count(); ++v)
        ASSERT_EQ(levels[t][v], ref.level[v])
            << "round " << round << " thread " << t << " v=" << v;
  }
}

// Regression for the EdgeRatio frontier-edge recomputation (now a parallel
// reduction): the direction decisions must be exactly those of the same
// policy evaluated against DRAM storage, whose degree sums are computed
// from the backward graph the same way.
TEST_F(ExternalBfsTest, EdgeRatioDirectionsMatchDramRun) {
  BfsConfig config;
  config.policy.kind = PolicyKind::EdgeRatio;
  config.policy.alpha = 14.0;  // Beamer's defaults: switch mid-traversal
  config.policy.beta = 24.0;

  GraphStorage dram_storage;
  dram_storage.forward = &forward_;
  dram_storage.backward = &backward_;
  HybridBfsRunner dram_runner{dram_storage, NumaTopology{4, 1}, pool_};
  const BfsResult dram = dram_runner.run(root_, config);

  auto device = std::make_shared<NvmDevice>(fast_profile("dram"));
  ExternalForwardGraph external{forward_, device, dir_.path()};
  GraphStorage ext_storage;
  ext_storage.forward = &external;
  ext_storage.backward = &backward_;
  HybridBfsRunner ext_runner{ext_storage, NumaTopology{4, 1}, pool_};
  const BfsResult ext = ext_runner.run(root_, config);

  // The policy must have actually switched for this to test anything.
  bool saw_bottom_up = false;
  for (const LevelStats& ls : dram.levels)
    saw_bottom_up |= ls.direction == Direction::BottomUp;
  EXPECT_TRUE(saw_bottom_up);

  ASSERT_EQ(ext.levels.size(), dram.levels.size());
  for (std::size_t i = 0; i < dram.levels.size(); ++i)
    ASSERT_EQ(ext.levels[i].direction, dram.levels[i].direction)
        << "level " << i;
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    ASSERT_EQ(ext.level[v], dram.level[v]);
}

// Regression: degree() used to assert that a hybrid backward graph was
// attached when storage had no backward graph; it now sums the
// destination-filtered forward partitions.
TEST_F(ExternalBfsTest, DegreeFallsBackToForwardStorage) {
  GraphStorage fwd_only;
  fwd_only.forward = &forward_;

  auto device = std::make_shared<NvmDevice>(fast_profile("dram"));
  ExternalForwardGraph external{forward_, device, dir_.path()};
  GraphStorage ext_only;
  ext_only.forward = &external;

  for (Vertex v = 0; v < edges_.vertex_count(); v += 11) {
    const std::int64_t expected = full_.degree(v);
    EXPECT_EQ(fwd_only.degree(v), expected) << "v=" << v;
    EXPECT_EQ(ext_only.degree(v), expected) << "v=" << v;
  }
}

}  // namespace
}  // namespace sembfs
