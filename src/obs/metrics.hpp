// Low-overhead metrics registry: named counters, gauges and latency
// histograms shared by every instrumented subsystem (NVM device, I/O
// scheduler, chunk cache, engine session, thread pool).
//
// Design constraints (the FlashGraph/Graphyti lesson — a semi-external
// engine lives or dies by its I/O stack, so the instrumentation must be
// cheap enough to leave compiled in):
//  - Disabled mode is the default and costs a SINGLE BRANCH per event: one
//    relaxed atomic load of the process-wide enabled flag. No clock reads,
//    no stores, no locks.
//  - Enabled counters are sharded across cache-line-padded per-thread
//    slots, so 48 BFS workers bumping `nvm.requests` never contend on one
//    line; value() folds the shards.
//  - Handles (Counter&/Gauge&/Histogram&) are stable for the process
//    lifetime: instrumented objects resolve names once at construction and
//    keep raw pointers. The registry itself is a leaked singleton so no
//    static-destruction-order hazard exists for worker threads that
//    outlive main().
//
// Naming convention: `<subsystem>.<metric>[_<unit>]`, e.g.
// `nvm.queue_wait_us`, `chunk_cache.hits` (see docs/OBSERVABILITY.md for
// the full catalogue).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace sembfs::obs {

namespace detail {
inline std::atomic<bool> g_enabled{false};

/// Small dense id for the calling thread, assigned on first use.
inline std::size_t this_thread_ordinal() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}
}  // namespace detail

/// True while metric collection is on. Instrumentation sites gate on this
/// before taking timestamps or touching counters; when false the whole
/// event costs exactly this load + branch.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips collection on/off (off by default). Toggling does not clear
/// accumulated values; see MetricsRegistry::reset().
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic event counter, sharded to keep concurrent adds off a single
/// cache line. add() does NOT check enabled() — call sites gate.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::this_thread_ordinal() % kShards].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-writer-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Everything the registry holds, copied out at one instant (name-sorted,
/// so exports are deterministic).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Name -> instrument table. Registration (counter()/gauge()/histogram())
/// takes a mutex and is meant for construction time; the returned
/// references stay valid for the registry's lifetime, so hot paths never
/// look names up again.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every registered instrument (names stay registered).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every built-in instrumentation site uses.
/// Intentionally leaked: I/O and pool worker threads may record into it
/// during static destruction.
MetricsRegistry& metrics();

}  // namespace sembfs::obs
