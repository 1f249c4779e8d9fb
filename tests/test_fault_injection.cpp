// Failure injection: a device error in the semi-external read path must
// surface as an exception from direct reads, and the parallel BFS must
// contain it — degrading the level to the DRAM bottom-up direction when a
// backward graph is attached, throwing when there is nothing to fall back
// to — leaving the pool and the device usable afterwards.
#include <gtest/gtest.h>

#include <filesystem>

#include "engine/bfs_program.hpp"
#include "engine/program_session.hpp"
#include "graph_fixtures.hpp"
#include "nvm/external_array.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
  }
  ThreadPool pool_{4};
  testutil::ScopedTestDir dir_{"fault"};
  std::shared_ptr<NvmDevice> device_;
};

TEST_F(FaultInjectionTest, NextRequestFails) {
  NvmFile file{device_, dir_.path() + "/a.bin"};
  const char payload[8] = "1234567";
  file.write(0, std::as_bytes(std::span<const char>{payload}));

  device_->inject_failure_after(1);
  char buf[4];
  EXPECT_THROW(file.read(0, std::as_writable_bytes(std::span<char>{buf})),
               std::runtime_error);
  // One-shot: the device recovers.
  file.read(0, std::as_writable_bytes(std::span<char>{buf}));
  EXPECT_EQ(buf[0], '1');
}

TEST_F(FaultInjectionTest, CountdownSkipsEarlierRequests) {
  NvmFile file{device_, dir_.path() + "/b.bin"};
  const char payload[8] = "abcdefg";
  file.write(0, std::as_bytes(std::span<const char>{payload}));

  device_->inject_failure_after(3);  // write consumed nothing: reads 1,2 ok
  char c;
  file.read(0, std::as_writable_bytes(std::span<char>{&c, 1}));
  file.read(1, std::as_writable_bytes(std::span<char>{&c, 1}));
  EXPECT_THROW(file.read(2, std::as_writable_bytes(std::span<char>{&c, 1})),
               std::runtime_error);
}

TEST_F(FaultInjectionTest, ClearCancelsInjection) {
  NvmFile file{device_, dir_.path() + "/c.bin"};
  const char payload[4] = "xyz";
  file.write(0, std::as_bytes(std::span<const char>{payload}));
  device_->inject_failure_after(1);
  device_->clear_injected_failure();
  char c;
  file.read(0, std::as_writable_bytes(std::span<char>{&c, 1}));
  EXPECT_EQ(c, 'x');
}

TEST_F(FaultInjectionTest, ExternalArrayReadPropagates) {
  NvmFile file{device_, dir_.path() + "/arr.bin"};
  ExternalArray<std::int64_t> arr{file, 0, 16};
  std::vector<std::int64_t> data(16, 7);
  arr.write(0, data);
  device_->inject_failure_after(1);
  std::vector<std::int64_t> out(16);
  EXPECT_THROW(arr.read(0, out), std::runtime_error);
}

TEST_F(FaultInjectionTest, ParallelBfsDegradesOnDeviceErrorAndRecovers) {
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 201), pool_);
  const VertexPartition partition{edges.vertex_count(), 4};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  ExternalForwardGraph external{forward, device_, dir_.path() + "/fg"};

  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

  Vertex root = 0;
  while (backward.neighbors(root).empty()) ++root;
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;

  // A healthy run first (also warms the path).
  const BfsResult healthy = runner.run(root, config);
  ASSERT_GT(healthy.nvm_requests, 100u);
  EXPECT_FALSE(healthy.degraded);

  // Fail mid-traversal: the error no longer crosses the thread pool — the
  // step contains it, the level is completed via the DRAM bottom-up
  // direction, and the run finishes with the degraded flag set. The
  // one-shot fails exactly one fetch, so exactly one level degrades.
  device_->inject_failure_after(healthy.nvm_requests / 2);
  const BfsResult degraded = runner.run(root, config);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.degraded_levels, 1);
  EXPECT_GE(degraded.io_failures, 1u);
  // Degradation trades the I/O pattern, never the answer.
  EXPECT_EQ(degraded.visited, healthy.visited);
  EXPECT_EQ(degraded.level, healthy.level);
  std::int32_t degraded_level_count = 0;
  for (const LevelStats& ls : degraded.levels)
    if (ls.degraded) ++degraded_level_count;
  EXPECT_EQ(degraded_level_count, 1);

  // And the runner/pool/device all remain usable, undegraded.
  device_->clear_fault_plan();
  const BfsResult after = runner.run(root, config);
  EXPECT_FALSE(after.degraded);
  EXPECT_EQ(after.level, healthy.level);
}

TEST_F(FaultInjectionTest, IoRetryHealsTopDownReadFailure) {
  // BfsConfig::io_retry governs every top-down read: the one-shot failure
  // that degrades a level under the default single attempt is retried on
  // the device instead, and no level degrades.
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 201), pool_);
  const VertexPartition partition{edges.vertex_count(), 4};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  ExternalForwardGraph external{forward, device_, dir_.path() + "/fg"};

  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

  Vertex root = 0;
  while (backward.neighbors(root).empty()) ++root;
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;
  config.io_retry.max_attempts = 3;
  const BfsResult healthy = runner.run(root, config);
  ASSERT_FALSE(healthy.degraded);

  const std::uint64_t retries_before = device_->stats().retry_count();
  device_->inject_failure_after(healthy.nvm_requests / 2);
  const BfsResult retried = runner.run(root, config);
  EXPECT_FALSE(retried.degraded);
  EXPECT_EQ(retried.io_failures, 0u);
  EXPECT_EQ(retried.level, healthy.level);
  EXPECT_EQ(device_->stats().retry_count(), retries_before + 1);
}

TEST_F(FaultInjectionTest, DegradationWithoutBackwardGraphThrows) {
  // With no backward graph attached there is nothing to degrade to; the
  // failure must still surface instead of returning a truncated tree. The
  // runner refuses forward-only storage outright, so drive a BfsProgram
  // under a ProgramSession directly — the entry point that accepts it
  // (k-hop use).
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(9, 8, 205), pool_);
  const VertexPartition partition{edges.vertex_count(), 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  ExternalForwardGraph external{forward, device_, dir_.path() + "/fg"};

  GraphStorage storage;
  storage.forward = &external;
  const NumaTopology topology{2, 1};

  Vertex root = 0;
  while (forward.partition(0).neighbors(root).empty() &&
         forward.partition(1).neighbors(root).empty())
    ++root;
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;

  BfsStatus healthy_status{edges.vertex_count()};
  engine::BfsProgram healthy_program{healthy_status, root};
  engine::ProgramSession healthy{healthy_program, storage, topology, pool_,
                                 config};
  while (healthy.step()) {
  }
  const std::uint64_t requests =
      healthy_program.snapshot_result(healthy).nvm_requests;
  ASSERT_GT(requests, 20u);

  device_->inject_failure_after(requests / 2);
  BfsStatus faulted_status{edges.vertex_count()};
  engine::BfsProgram faulted_program{faulted_status, root};
  engine::ProgramSession faulted{faulted_program, storage, topology, pool_,
                                 config};
  EXPECT_THROW(
      while (faulted.step()) {}, NvmIoError);
}

TEST_F(FaultInjectionTest, StatsNotCorruptedByFailure) {
  NvmFile file{device_, dir_.path() + "/stats.bin"};
  const char payload[8] = "1234567";
  file.write(0, std::as_bytes(std::span<const char>{payload}));
  device_->stats().reset();

  device_->inject_failure_after(1);
  char c;
  EXPECT_THROW(file.read(0, std::as_writable_bytes(std::span<char>{&c, 1})),
               std::runtime_error);
  // The failed request never entered the queue accounting; a subsequent
  // read produces exactly one completed request.
  file.read(0, std::as_writable_bytes(std::span<char>{&c, 1}));
  const IoStatsSnapshot s = device_->stats().snapshot();
  EXPECT_EQ(s.requests, 1u);
}

}  // namespace
}  // namespace sembfs
