#include "nvm/nvm_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "util/timer.hpp"

namespace sembfs {
namespace {

class NvmDeviceTest : public ::testing::Test {
 protected:
  std::string path(const char* name) const {
    // Unique per test: ctest runs every case as its own process, and a
    // shared path lets one process truncate a file another is reading.
    return testing::TempDir() + "/sembfs_nvm_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + name + ".bin";
  }
  void TearDown() override {
    remove_file_if_exists(path("a"));
    remove_file_if_exists(path("b"));
  }
};

std::span<const std::byte> as_bytes(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

TEST_F(NvmDeviceTest, FileRoundTrip) {
  auto device = std::make_shared<NvmDevice>(DeviceProfile::dram());
  NvmFile file{device, path("a")};
  file.write(0, as_bytes("semi-external"));
  char buf[8] = {};
  file.read(5, std::as_writable_bytes(std::span<char>{buf}));
  EXPECT_EQ(std::string(buf, 8), "external");
}

TEST_F(NvmDeviceTest, EveryIoIsOneRequest) {
  auto device = std::make_shared<NvmDevice>(DeviceProfile::dram());
  NvmFile file{device, path("a")};
  file.write(0, as_bytes("0123456789"));
  char c;
  for (int i = 0; i < 7; ++i)
    file.read(0, std::as_writable_bytes(std::span<char>{&c, 1}));
  EXPECT_EQ(device->stats().request_count(), 8u);  // 1 write + 7 reads
}

TEST_F(NvmDeviceTest, MultipleFilesShareDeviceStats) {
  auto device = std::make_shared<NvmDevice>(DeviceProfile::dram());
  NvmFile a{device, path("a")};
  NvmFile b{device, path("b")};
  a.write(0, as_bytes("xx"));
  b.write(0, as_bytes("yy"));
  EXPECT_EQ(device->stats().request_count(), 2u);
}

TEST_F(NvmDeviceTest, AppendTracksOffsets) {
  auto device = std::make_shared<NvmDevice>(DeviceProfile::dram());
  NvmFile file{device, path("a")};
  EXPECT_EQ(file.append(as_bytes("abc")), 0u);
  EXPECT_EQ(file.append(as_bytes("defg")), 3u);
  EXPECT_EQ(file.size(), 7u);
  char buf[7] = {};
  file.read(0, std::as_writable_bytes(std::span<char>{buf}));
  EXPECT_EQ(std::string(buf, 7), "abcdefg");
}

TEST_F(NvmDeviceTest, SimulatedLatencyIsApplied) {
  DeviceProfile profile;
  profile.name = "slow";
  profile.read_latency_us = 2000.0;  // 2 ms
  profile.channels = 4;
  auto device = std::make_shared<NvmDevice>(profile);
  NvmFile file{device, path("a")};
  file.write(0, as_bytes("x"));  // also delayed but fine

  char c;
  Timer t;
  for (int i = 0; i < 5; ++i)
    file.read(0, std::as_writable_bytes(std::span<char>{&c, 1}));
  EXPECT_GE(t.seconds(), 5 * 2e-3 * 0.8);  // ~10 ms serial service
}

TEST_F(NvmDeviceTest, ChannelsLimitConcurrency) {
  DeviceProfile profile;
  profile.name = "narrow";
  profile.read_latency_us = 5000.0;  // 5 ms per request
  profile.channels = 1;              // fully serialized
  auto device = std::make_shared<NvmDevice>(profile);
  NvmFile file{device, path("a")};
  file.write(0, as_bytes("x"));
  device->stats().reset();

  Timer t;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&file] {
      char c;
      file.read(0, std::as_writable_bytes(std::span<char>{&c, 1}));
    });
  }
  for (auto& th : threads) th.join();
  // 4 requests through 1 channel at ~5 ms each: >= ~20 ms wall clock, and
  // waiting requests must show up in the queue-length integral.
  EXPECT_GE(t.seconds(), 4 * 5e-3 * 0.7);
  EXPECT_GT(device->stats().snapshot().avg_queue_length, 1.0);
}

TEST_F(NvmDeviceTest, TimeScaleShortensSimulation) {
  DeviceProfile slow;
  slow.read_latency_us = 2000.0;
  slow.channels = 1;
  DeviceProfile scaled = slow;
  scaled.time_scale = 0.1;

  auto run = [&](const DeviceProfile& p) {
    auto device = std::make_shared<NvmDevice>(p);
    NvmFile file{device, path("a")};
    file.write(0, as_bytes("x"));
    char c;
    Timer t;
    for (int i = 0; i < 5; ++i)
      file.read(0, std::as_writable_bytes(std::span<char>{&c, 1}));
    return t.seconds();
  };
  // A host stall can only lengthen a run, so the fastest of three runs
  // per side is the one closest to the modelled time.
  const auto fastest = [&](const DeviceProfile& p) {
    double best = run(p);
    for (int i = 1; i < 3; ++i) best = std::min(best, run(p));
    return best;
  };
  EXPECT_LT(fastest(scaled), fastest(slow));
}

TEST_F(NvmDeviceTest, StatsSeeServiceTimes) {
  DeviceProfile profile;
  profile.read_latency_us = 1000.0;
  auto device = std::make_shared<NvmDevice>(profile);
  NvmFile file{device, path("a")};
  file.write(0, as_bytes("x"));
  device->stats().reset();
  char c;
  file.read(0, std::as_writable_bytes(std::span<char>{&c, 1}));
  const IoStatsSnapshot s = device->stats().snapshot();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_GE(s.busy_seconds, 0.8e-3);
  EXPECT_GE(s.await_ms, 0.8);
}

}  // namespace
}  // namespace sembfs
