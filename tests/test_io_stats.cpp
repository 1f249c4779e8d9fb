#include "nvm/io_stats.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace sembfs {
namespace {

TEST(IoStats, StartsZeroed) {
  IoStats stats;
  const IoStatsSnapshot s = stats.snapshot();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.avg_request_sectors, 0.0);
}

TEST(IoStats, CountsRequestsAndBytes) {
  IoStats stats;
  for (int i = 0; i < 5; ++i) {
    const auto t = stats.on_arrival();
    stats.on_completion(t, 1024, 0.0);
  }
  const IoStatsSnapshot s = stats.snapshot();
  EXPECT_EQ(s.requests, 5u);
  EXPECT_EQ(s.bytes, 5120u);
  EXPECT_EQ(s.sectors, 10u);  // 1024 B = 2 x 512 B sectors
  EXPECT_DOUBLE_EQ(s.avg_request_sectors, 2.0);
}

TEST(IoStats, PeakInFlightTracksMostRequestsAtOnce) {
  IoStats stats;
  const auto a = stats.on_arrival();
  const auto b = stats.on_arrival();
  const auto c = stats.on_arrival();
  stats.on_completion(a, 512, 0.0);
  stats.on_completion(b, 512, 0.0);
  const auto d = stats.on_arrival();  // two in flight again, never three
  stats.on_completion(c, 512, 0.0);
  stats.on_completion(d, 512, 0.0);
  EXPECT_EQ(stats.snapshot().peak_in_flight, 3u);
  stats.reset();
  EXPECT_EQ(stats.snapshot().peak_in_flight, 0u);
}

TEST(IoStats, SectorRoundingUp) {
  IoStats stats;
  const auto t = stats.on_arrival();
  stats.on_completion(t, 1, 0.0);  // 1 byte still occupies a sector
  EXPECT_EQ(stats.snapshot().sectors, 1u);
}

TEST(IoStats, CustomSectorSize) {
  IoStats stats{4096};
  const auto t = stats.on_arrival();
  stats.on_completion(t, 8192, 0.0);
  EXPECT_EQ(stats.snapshot().sectors, 2u);
}

TEST(IoStats, QueueIntegralReflectsConcurrency) {
  IoStats stats;
  // Two overlapping requests held ~20ms: avgqu-sz should be near 2.
  const auto a = stats.on_arrival();
  const auto b = stats.on_arrival();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stats.on_completion(a, 512, 0.02);
  stats.on_completion(b, 512, 0.02);
  const IoStatsSnapshot s = stats.snapshot();
  EXPECT_GT(s.avg_queue_length, 1.0);
  EXPECT_LE(s.avg_queue_length, 2.5);
}

TEST(IoStats, AwaitTracksWallTime) {
  // The ceiling is the wall time measured around arrival and completion,
  // not a guess at how long the host may stall the sleeping thread.
  IoStats stats;
  const auto before = std::chrono::steady_clock::now();
  const auto t = stats.on_arrival();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stats.on_completion(t, 512, 0.01);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - before)
                             .count();
  const IoStatsSnapshot s = stats.snapshot();
  EXPECT_GE(s.await_ms, 9.0);
  EXPECT_LE(s.await_ms, wall_ms);
}

TEST(IoStats, ResetClearsWindow) {
  IoStats stats;
  const auto t = stats.on_arrival();
  stats.on_completion(t, 512, 0.0);
  stats.reset();
  const IoStatsSnapshot s = stats.snapshot();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_LT(s.elapsed_seconds, 1.0);
}

TEST(IoStats, ThroughputComputed) {
  IoStats stats;
  const auto t = stats.on_arrival();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stats.on_completion(t, 1 << 20, 0.005);
  EXPECT_GT(stats.snapshot().throughput_bps(), 0.0);
}

TEST(IoStats, IdleQueueContributesZero) {
  IoStats stats;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto t = stats.on_arrival();
  stats.on_completion(t, 512, 0.0);
  // Queue was empty for almost the whole window.
  EXPECT_LT(stats.snapshot().avg_queue_length, 0.5);
}

}  // namespace
}  // namespace sembfs
