#include "nvm/striped_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "bfs/reference_bfs.hpp"
#include "engine/bfs_program.hpp"
#include "graph/external_csr.hpp"
#include "graph_fixtures.hpp"

namespace sembfs {
namespace {

class StripedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs every case as its own process, and a
    // shared directory lets one process truncate files another is reading.
    dir_ = ::testing::TempDir() + "/sembfs_stripe_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    for (int i = 0; i < 4; ++i)
      devices_.push_back(
          std::make_shared<NvmDevice>(DeviceProfile::dram()));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::byte> pattern(std::size_t size) const {
    std::vector<std::byte> data(size);
    for (std::size_t i = 0; i < size; ++i)
      data[i] = static_cast<std::byte>(i * 7 + 3);
    return data;
  }

  std::string dir_;
  std::vector<std::shared_ptr<NvmDevice>> devices_;
};

TEST_F(StripedFileTest, RoundTripAcrossStripes) {
  StripedNvmFile file{devices_, dir_ + "/a", 4096};
  const auto data = pattern(40000);  // ~10 stripes
  file.write(0, data);
  std::vector<std::byte> back(data.size());
  file.read(0, back);
  EXPECT_EQ(back, data);
  EXPECT_EQ(file.size(), data.size());
}

TEST_F(StripedFileTest, UnalignedRangesRoundTrip) {
  StripedNvmFile file{devices_, dir_ + "/b", 4096};
  const auto data = pattern(5000);
  file.write(1234, data);
  std::vector<std::byte> back(777);
  file.read(1234 + 3333, back);
  for (std::size_t i = 0; i < back.size(); ++i)
    ASSERT_EQ(back[i], data[3333 + i]) << "i=" << i;
}

TEST_F(StripedFileTest, SpreadsRequestsAcrossDevices) {
  StripedNvmFile file{devices_, dir_ + "/c", 4096};
  file.write(0, pattern(16 * 4096));
  for (const auto& device : devices_) device->stats().reset();

  // One big read spanning 16 stripes -> 4 requests per device.
  std::vector<std::byte> back(16 * 4096);
  file.read(0, back);
  for (const auto& device : devices_)
    EXPECT_EQ(device->stats().request_count(), 4u);
}

TEST_F(StripedFileTest, StripeLocalReadsHitOneDevice) {
  StripedNvmFile file{devices_, dir_ + "/d", 4096};
  file.write(0, pattern(8 * 4096));
  for (const auto& device : devices_) device->stats().reset();

  std::vector<std::byte> back(100);
  file.read(4096 * 2 + 5, back);  // inside stripe 2 -> device 2
  EXPECT_EQ(devices_[2]->stats().request_count(), 1u);
  EXPECT_EQ(devices_[0]->stats().request_count(), 0u);
}

TEST_F(StripedFileTest, SingleDeviceDegeneratesToPlainFile) {
  StripedNvmFile file{{devices_[0]}, dir_ + "/e", 4096};
  const auto data = pattern(10000);
  file.write(0, data);
  std::vector<std::byte> back(data.size());
  file.read(0, back);
  EXPECT_EQ(back, data);
}

TEST_F(StripedFileTest, StripedForwardGraphBfsCorrect) {
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 401), pool);
  const VertexPartition partition{edges.vertex_count(), 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  ExternalForwardGraph striped{forward, devices_, dir_ + "/fg"};
  GraphStorage storage;
  storage.forward = &striped;
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{2, 2}, pool};

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;
  const BfsResult result = runner.run(root, config);
  const ReferenceBfsResult ref = reference_bfs(full, root);
  for (Vertex v = 0; v < edges.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]);

  // Work actually spread: several devices served requests.
  int active_devices = 0;
  for (const auto& device : devices_)
    if (device->stats().request_count() > 0) ++active_devices;
  EXPECT_GE(active_devices, 2);
}

TEST_F(StripedFileTest, StripingReducesQueueingOnSlowDevices) {
  // Same concurrent workload through 1 vs 4 single-channel devices: with
  // one device every request waits behind the others; the stripe set
  // multiplies service capacity fourfold, so the time requests spend
  // queued (IoStats wait minus service, summed over the devices) must
  // drop decisively. Queue wait, not wall time: it is what striping
  // changes, and it leaves out building the pool and the readers' own
  // time between requests.
  DeviceProfile slow;
  slow.name = "slow";
  // Well above the scheduling delays of a loaded host (up to about a
  // millisecond), which also land in the measured queue wait.
  slow.read_latency_us = 2000.0;
  slow.channels = 1;  // fully serialized per device

  const auto queue_wait_with = [&](std::size_t device_count) {
    std::vector<std::shared_ptr<NvmDevice>> devices;
    for (std::size_t i = 0; i < device_count; ++i)
      devices.push_back(std::make_shared<NvmDevice>(slow));
    StripedNvmFile file{devices,
                        dir_ + "/q" + std::to_string(device_count), 4096};
    file.write(0, pattern(64 * 4096));
    ThreadPool pool{8};
    for (const auto& device : devices) device->stats().reset();
    // Reader w reads stripes w, w + 8, ..., w + 56, all on device w % 4
    // of four: each device serves the same two readers, whatever the
    // threads' timing.
    pool.run([&](std::size_t w) {
      std::vector<std::byte> buffer(4096);
      for (std::size_t i = 0; i < 8; ++i) file.read((i * 8 + w) * 4096, buffer);
    });
    double queued = 0.0;
    for (const auto& device : devices) {
      const IoStatsSnapshot io = device->stats().snapshot();
      queued += io.wait_seconds - io.busy_seconds;
    }
    return queued;
  };

  // 8 readers on one device: each read waits behind up to 7 others; on
  // four devices behind at most one. Require a 1.5x margin to stay robust
  // on a noisy machine.
  const double one = queue_wait_with(1);
  const double four = queue_wait_with(4);
  EXPECT_LT(four * 1.5, one);
}

// --- per-stripe fault injection -------------------------------------------
//
// Each stripe device is its own failure domain: a fault plan armed on one
// device must only affect reads that touch its stripes, and a read error
// from any piece must surface as a read error of the whole logical read
// (never as silently missing bytes).

TEST_F(StripedFileTest, FaultOnOneDeviceOnlyFailsItsStripes) {
  StripedNvmFile file{devices_, dir_ + "/f1", 4096};
  file.write(0, pattern(16 * 4096));

  FaultPlan plan;
  plan.seed = 99;
  plan.read_error_rate = 1.0;  // every read on device 1 fails
  devices_[1]->set_fault_plan(plan);

  std::vector<std::byte> back(100);
  // Stripes 0, 2, 3 live on healthy devices.
  EXPECT_NO_THROW(file.read(0, back));
  EXPECT_NO_THROW(file.read(2 * 4096, back));
  EXPECT_NO_THROW(file.read(3 * 4096, back));
  // Stripe 1 and stripe 5 (= 5 % 4 -> device 1) must fail.
  EXPECT_THROW(file.read(1 * 4096, back), NvmIoError);
  EXPECT_THROW(file.read(5 * 4096 + 7, back), NvmIoError);

  devices_[1]->clear_fault_plan();
  EXPECT_NO_THROW(file.read(1 * 4096, back));
}

TEST_F(StripedFileTest, SpanningReadFailsWhenAnyPieceFails) {
  StripedNvmFile file{devices_, dir_ + "/f2", 4096};
  const auto data = pattern(16 * 4096);
  file.write(0, data);

  FaultPlan plan;
  plan.seed = 7;
  plan.read_error_rate = 1.0;
  devices_[3]->set_fault_plan(plan);

  // A 4-stripe read crosses all devices, including the broken one.
  std::vector<std::byte> back(4 * 4096);
  EXPECT_THROW(file.read(0, back), NvmIoError);
  // Restricting the read to the three healthy stripes succeeds, with the
  // content intact.
  std::vector<std::byte> healthy(3 * 4096);
  file.read(0, healthy);
  for (std::size_t i = 0; i < healthy.size(); ++i)
    ASSERT_EQ(healthy[i], data[i]) << "i=" << i;
}

TEST_F(StripedFileTest, DeterministicOneShotFailurePerDevice) {
  StripedNvmFile file{devices_, dir_ + "/f3", 4096};
  file.write(0, pattern(8 * 4096));

  FaultPlan plan;
  plan.fail_after_requests = 2;  // second read on device 0 fails, once
  devices_[0]->set_fault_plan(plan);

  std::vector<std::byte> back(100);
  EXPECT_NO_THROW(file.read(0, back));
  EXPECT_THROW(file.read(4 * 4096, back), NvmIoError);  // device 0 again
  // One-shot: the device recovers after the injected failure.
  EXPECT_NO_THROW(file.read(0, back));
}

TEST_F(StripedFileTest, CorruptionOnOneStripeLeavesOthersClean) {
  StripedNvmFile file{devices_, dir_ + "/f4", 4096};
  const auto data = pattern(8 * 4096);
  file.write(0, data);

  FaultPlan plan;
  plan.seed = 13;
  plan.corruption_rate = 1.0;  // every read on device 2 flips bits
  devices_[2]->set_fault_plan(plan);

  // Healthy stripes deliver bit-exact data even while device 2 is
  // scrambling its share: corruption must not leak across stripes.
  std::vector<std::byte> back(4096);
  for (const std::size_t stripe : {0u, 1u, 3u, 4u, 5u, 7u}) {
    file.read(stripe * 4096, back);
    for (std::size_t i = 0; i < back.size(); ++i)
      ASSERT_EQ(back[i], data[stripe * 4096 + i])
          << "stripe " << stripe << " i=" << i;
  }
  std::vector<std::byte> dirty(4096);
  file.read(2 * 4096, dirty);
  bool flipped = false;
  for (std::size_t i = 0; i < dirty.size(); ++i)
    flipped = flipped || dirty[i] != data[2 * 4096 + i];
  EXPECT_TRUE(flipped) << "armed corruption plan never fired";
}

TEST_F(StripedFileTest, RejectsBadStripeSize) {
  EXPECT_DEATH(StripedNvmFile(devices_, dir_ + "/bad", 3000),
               "Precondition");
}

}  // namespace
}  // namespace sembfs
