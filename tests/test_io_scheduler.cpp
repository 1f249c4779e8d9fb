#include "nvm/io_scheduler.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "nvm/chunk_cache.hpp"
#include "nvm/storage_file.hpp"

namespace sembfs {
namespace {

class IoSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    file_ = std::make_unique<NvmFile>(device_, path());
    payload_.resize(256 * 1024);
    std::iota(payload_.begin(), payload_.end(), 0);
    file_->write(0, std::as_bytes(std::span<const char>{payload_}));
    device_->stats().reset();
  }
  void TearDown() override { remove_file_if_exists(path()); }
  std::string path() const {
    // Unique per test: ctest runs every case as its own process, and a
    // shared path lets one process truncate a file another is reading.
    return testing::TempDir() + "/sembfs_io_sched_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".bin";
  }

  void expect_bytes(std::span<const std::byte> got, std::uint64_t offset) {
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(static_cast<char>(got[i]), payload_[offset + i]) << i;
  }

  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<NvmFile> file_;
  std::vector<char> payload_;
  const RetryPolicy retry_;  // the default policy, carried by each read
};

TEST_F(IoSchedulerTest, SingleReadCompletesViaFuture) {
  IoScheduler scheduler{4};
  std::vector<std::byte> out(1000);
  auto done = scheduler.submit_read(*file_, 123, out, retry_);
  const IoResult result = done.get();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.requests, 1u);  // direct read = one device request
  expect_bytes(out, 123);
  EXPECT_EQ(device_->stats().request_count(), 1u);
}

TEST_F(IoSchedulerTest, ManyReadsEachLandInTheirOwnBuffer) {
  IoScheduler scheduler{4};
  constexpr std::size_t kReads = 64;
  std::vector<std::vector<std::byte>> bufs(kReads);
  std::vector<std::future<IoResult>> futures;
  futures.reserve(kReads);
  for (std::size_t i = 0; i < kReads; ++i) {
    bufs[i].resize(512 + i * 8);
    futures.push_back(scheduler.submit_read(
        *file_, i * 1024, std::span<std::byte>{bufs[i]}, retry_));
  }
  // Completion order is the scheduler's business; results must not be.
  for (std::size_t i = 0; i < kReads; ++i) {
    EXPECT_EQ(futures[i].get().value_or_throw(), 1u);
    expect_bytes(bufs[i], i * 1024);
  }
  scheduler.drain();  // the counters update after the future resolves
  const IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, kReads);
  EXPECT_EQ(stats.completed, kReads);
  EXPECT_GE(stats.peak_pending, 1u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST_F(IoSchedulerTest, DrainBlocksUntilQueueEmpty) {
  IoScheduler scheduler{2};
  std::vector<std::vector<std::byte>> bufs(32, std::vector<std::byte>(4096));
  std::vector<std::future<IoResult>> futures;
  for (std::size_t i = 0; i < bufs.size(); ++i)
    futures.push_back(scheduler.submit_read(
        *file_, i * 4096, std::span<std::byte>{bufs[i]}, retry_));
  scheduler.drain();
  EXPECT_EQ(scheduler.pending(), 0u);
  for (auto& f : futures) EXPECT_EQ(f.get().value_or_throw(), 1u);
}

TEST_F(IoSchedulerTest, DestructorDrainsInFlightRequests) {
  std::vector<std::vector<std::byte>> bufs(48, std::vector<std::byte>(8192));
  std::vector<std::future<IoResult>> futures;
  {
    IoScheduler scheduler{3};
    for (std::size_t i = 0; i < bufs.size(); ++i)
      futures.push_back(scheduler.submit_read(
          *file_, i * 4096, std::span<std::byte>{bufs[i]}, retry_));
    // Destroy with most requests still queued or in flight.
  }
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    EXPECT_EQ(futures[i].get().value_or_throw(), 1u);  // every future resolved
    expect_bytes(bufs[i], i * 4096);
  }
}

TEST_F(IoSchedulerTest, ReadErrorSurfacesAsFailedResult) {
  IoScheduler scheduler{2};
  std::vector<std::byte> out(128);
  // Reading past EOF makes the backing file throw on the I/O worker. The
  // error arrives as a value, never as an exception across the boundary.
  auto done =
      scheduler.submit_read(*file_, payload_.size() + 4096, out, retry_);
  const IoResult result = done.get();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, retry_.max_attempts);
  EXPECT_NE(result.error, nullptr);
  EXPECT_THROW(result.value_or_throw(), std::exception);
  scheduler.drain();  // the counters update after the future resolves
  const IoSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 1u);  // failed requests still complete
  EXPECT_EQ(stats.failures, 1u);
  // max_attempts - 1 backoff retries were burned on a permanent error.
  EXPECT_EQ(stats.retries,
            static_cast<std::uint64_t>(retry_.max_attempts) - 1);
}

TEST_F(IoSchedulerTest, ReadsThroughCachePopulateIt) {
  IoScheduler scheduler{4};
  ChunkCache cache{1 << 20};
  std::vector<std::byte> out(3 * 4096);
  auto cold = scheduler.submit_read(*file_, 0, out, retry_, &cache, 1 << 20);
  EXPECT_EQ(cold.get().value_or_throw(), 1u);  // one merged miss run
  expect_bytes(out, 0);

  auto warm = scheduler.submit_read(*file_, 0, out, retry_, &cache);
  EXPECT_EQ(warm.get().value_or_throw(), 0u);  // full hit: no device requests
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST_F(IoSchedulerTest, QueueDepthBoundsConcurrentService) {
  IoScheduler scheduler{1};
  EXPECT_EQ(scheduler.queue_depth(), 1u);
  // A depth-1 scheduler is strictly serial; every read still completes.
  std::vector<std::vector<std::byte>> bufs(16, std::vector<std::byte>(2048));
  std::vector<std::future<IoResult>> futures;
  for (std::size_t i = 0; i < bufs.size(); ++i)
    futures.push_back(scheduler.submit_read(
        *file_, i * 2048, std::span<std::byte>{bufs[i]}, retry_));
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    EXPECT_EQ(futures[i].get().value_or_throw(), 1u);
    expect_bytes(bufs[i], i * 2048);
  }
}

// --- failure-domain behavior -------------------------------------------

TEST_F(IoSchedulerTest, RetryRecoversFromTransientFault) {
  // The one-shot plan fails exactly the first device read; the retry must
  // succeed on attempt 2 and the device must record the retry.
  FaultPlan plan;
  plan.fail_after_requests = 1;
  device_->set_fault_plan(plan);

  IoScheduler scheduler{1};
  std::vector<std::byte> out(512);
  const IoResult result = scheduler.submit_read(*file_, 64, out, retry_).get();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 2);
  expect_bytes(out, 64);

  EXPECT_EQ(scheduler.stats().retries, 1u);
  EXPECT_EQ(scheduler.stats().failures, 0u);
  const IoStatsSnapshot io = device_->stats().snapshot();
  EXPECT_EQ(io.read_errors, 1u);
  EXPECT_EQ(io.retries, 1u);  // record_retry reached the device's stats
}

TEST_F(IoSchedulerTest, AttemptsExhaustedOnPersistentFault) {
  FaultPlan plan;
  plan.read_error_rate = 1.0;  // every read errors, forever
  device_->set_fault_plan(plan);

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_us = 1.0;  // keep the test fast
  IoScheduler scheduler{2};
  std::vector<std::byte> out(512);
  const IoResult result = scheduler.submit_read(*file_, 0, out, retry).get();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 4);
  EXPECT_THROW(result.value_or_throw(), NvmIoError);
  EXPECT_EQ(scheduler.stats().retries, 3u);
  EXPECT_EQ(scheduler.stats().failures, 1u);
}

TEST_F(IoSchedulerTest, RequestRetryPolicyOverridesConfig) {
  // Traversals sharing one scheduler carry their own policy per request:
  // the same one-shot fault fails at once under a single-attempt policy,
  // and is retried under the default one.
  FaultPlan plan;
  plan.fail_after_requests = 1;
  device_->set_fault_plan(plan);

  IoScheduler scheduler{1};
  ASSERT_EQ(retry_.max_attempts, 3);
  RetryPolicy single;
  single.max_attempts = 1;
  std::vector<std::byte> out(512);
  const IoResult failed = scheduler.submit_read(*file_, 0, out, single).get();
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.attempts, 1);
  EXPECT_EQ(scheduler.stats().retries, 0u);

  device_->set_fault_plan(plan);  // re-arm the one-shot fault
  const IoResult healed = scheduler.submit_read(*file_, 0, out, retry_).get();
  EXPECT_TRUE(healed.ok);
  EXPECT_EQ(healed.attempts, 2);
  expect_bytes(out, 0);
}

TEST_F(IoSchedulerTest, GrowAddsWorkersAndNeverShrinks) {
  IoScheduler scheduler{2};
  std::vector<std::byte> out(4096);
  auto in_flight = scheduler.submit_read(*file_, 0, out, retry_);
  scheduler.grow(6);
  EXPECT_EQ(scheduler.queue_depth(), 6u);
  scheduler.grow(3);
  EXPECT_EQ(scheduler.queue_depth(), 6u);
  EXPECT_TRUE(in_flight.get().ok);
  expect_bytes(out, 0);
}

TEST_F(IoSchedulerTest, BackoffGrowsExponentiallyAndIsCapped) {
  RetryPolicy retry;
  retry.initial_backoff_us = 50.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_us = 150.0;
  EXPECT_DOUBLE_EQ(retry.backoff_seconds(1), 50e-6);
  EXPECT_DOUBLE_EQ(retry.backoff_seconds(2), 100e-6);
  EXPECT_DOUBLE_EQ(retry.backoff_seconds(3), 150e-6);  // capped
  EXPECT_DOUBLE_EQ(retry.backoff_seconds(4), 150e-6);
}

TEST_F(IoSchedulerTest, DeadlineExpiryFailsTheRequest) {
  FaultPlan plan;
  plan.read_error_rate = 1.0;
  device_->set_fault_plan(plan);

  RetryPolicy retry;
  retry.max_attempts = 1000;        // deadline must fire first
  retry.initial_backoff_us = 2000;  // 2 ms per backoff
  retry.backoff_multiplier = 1.0;
  retry.deadline_seconds = 0.01;    // 10 ms budget
  IoScheduler scheduler{1};
  std::vector<std::byte> out(256);
  const IoResult result = scheduler.submit_read(*file_, 0, out, retry).get();
  EXPECT_FALSE(result.ok);
  EXPECT_LT(result.attempts, 1000);
  EXPECT_NE(result.message.find("deadline"), std::string::npos)
      << result.message;
  EXPECT_EQ(scheduler.stats().deadline_expired, 1u);
}

TEST_F(IoSchedulerTest, ShutdownUnderFaultsDoesNotDeadlock) {
  // Destroy the scheduler while a faulty queue is still churning: every
  // future must still resolve (ok or not) and the destructor must return.
  FaultPlan plan;
  plan.seed = 77;
  plan.read_error_rate = 0.5;
  device_->set_fault_plan(plan);

  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.initial_backoff_us = 1.0;
  std::vector<std::vector<std::byte>> bufs(64, std::vector<std::byte>(1024));
  std::vector<std::future<IoResult>> futures;
  {
    IoScheduler scheduler{4};
    for (std::size_t i = 0; i < bufs.size(); ++i)
      futures.push_back(scheduler.submit_read(
          *file_, i * 1024, std::span<std::byte>{bufs[i]}, retry));
  }
  std::size_t succeeded = 0;
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    const IoResult result = futures[i].get();  // resolved, never dangling
    if (result.ok) {
      expect_bytes(bufs[i], i * 1024);
      ++succeeded;
    }
  }
  // With a 50% error rate and 2 attempts some reads succeed, some do not;
  // the exact split is the seed's business.
  EXPECT_GT(succeeded, 0u);
  EXPECT_LT(succeeded, bufs.size());
}

}  // namespace
}  // namespace sembfs
