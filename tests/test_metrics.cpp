#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace sembfs::obs {
namespace {

// Tests use their own registries; the global one is shared with the
// instrumented subsystems and would see their traffic.

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(Gauge, SetAddValue) {
  Gauge g;
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsRegistry, ReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Same name in a different kind namespace is a different instrument.
  Gauge& g = reg.gauge("x");
  g.set(-5);
  EXPECT_EQ(reg.counter("x").value(), 3u);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Half the threads intern a private name, all hammer a shared one.
      Counter& shared = reg.counter("shared");
      Counter& mine =
          reg.counter(std::string{"t"}.append(std::to_string(t % 4)));
      Histogram& h = reg.histogram("lat");
      for (int i = 0; i < kIters; ++i) {
        shared.add();
        mine.add();
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("lat").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  std::uint64_t private_total = 0;
  for (int t = 0; t < 4; ++t)
    private_total +=
        reg.counter(std::string{"t"}.append(std::to_string(t))).value();
  EXPECT_EQ(private_total, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zebra").add(1);
  reg.counter("apple").add(2);
  reg.counter("mango").add(3);
  reg.gauge("depth").set(4);
  reg.histogram("lat").record(7);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "apple");
  EXPECT_EQ(snap.counters[1].first, "mango");
  EXPECT_EQ(snap.counters[2].first, "zebra");
  EXPECT_EQ(snap.counters[2].second, 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsNames) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add(9);
  reg.histogram("h").record(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);           // same handle, zeroed
  EXPECT_EQ(&reg.counter("c"), &c);   // name still interned
  EXPECT_EQ(reg.snapshot().histograms[0].second.count, 0u);
}

TEST(EnabledFlag, TogglesAndDefaultsOff) {
  // The suite never leaves this on; instrumented code in other tests
  // depends on the default-off state.
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

TEST(GlobalRegistry, IsASingleton) {
  EXPECT_EQ(&metrics(), &metrics());
}

}  // namespace
}  // namespace sembfs::obs
