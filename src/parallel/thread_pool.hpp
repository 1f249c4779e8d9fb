// Persistent worker pool used by every parallel kernel in the library.
//
// Design notes:
//  - Workers are created once and reused across BFS levels; a BFS on a
//    SCALE 27 graph runs thousands of parallel regions, so per-region thread
//    creation would dominate.
//  - run(n, fn) executes fn(worker_index) on n workers and *blocks* until
//    all return — the fork/join shape of an OpenMP parallel region.
//  - Worker index is stable within a region, which the NUMA layer uses to
//    map workers onto emulated nodes.
//
// ## Pool-exclusivity contract
//
// run() is NOT reentrant and regions do not nest: at any instant at most
// one thread may be inside run() (a second caller would trip the
// no-recursive-regions assertion, or serialize behind the first in a way
// the kernels' per-region cursors don't expect). Every layer above
// therefore treats the pool as an exclusively-held resource per parallel
// region: an engine session runs its level kernels one at a time, and the
// serving engine (src/serve) funnels ALL pool work — every query's levels,
// batched or not — through its single dispatcher thread. While a
// QueryEngine is running, the pool belongs to it; other threads must not
// call run() on the same pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace sembfs {

class ThreadPool {
 public:
  /// Creates `threads` persistent workers (>= 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(worker) for worker in [0, participants) and waits for all.
  /// participants must be <= size(). fn may not call run() recursively.
  /// Exceptions thrown by fn propagate to the caller (first one wins).
  void run(std::size_t participants, const std::function<void(std::size_t)>& fn);

  /// Convenience: all workers participate.
  void run(const std::function<void(std::size_t)>& fn) { run(size(), fn); }

  /// Labels pool workers with emulated NUMA node ids for observability:
  /// while metrics are enabled, each worker's execution of a parallel
  /// region is timed into the per-node histogram `pool.node<k>.step_us`
  /// (unlabeled workers record into `pool.step_us`). Workers beyond
  /// `node_of_worker.size()` stay unlabeled. Must not be called while a
  /// region is running; typically set once per engine session from its
  /// NumaTopology. A call with the labels already in effect is a cheap
  /// no-op (one vector compare, no registry traffic) — the serving engine
  /// constructs a session per query on a fixed topology, so the rebind
  /// must not cost anything on that path.
  void set_worker_nodes(const std::vector<std::size_t>& node_of_worker);

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;

  // Observability handles (global registry). worker_step_hist_ is guarded
  // by mutex_: workers pick up their histogram alongside the job, so a
  // between-regions set_worker_nodes() is safely published.
  obs::Histogram* default_step_hist_;
  obs::Counter* regions_;
  std::vector<obs::Histogram*> worker_step_hist_;
  /// Labels currently in effect (guarded by mutex_), so an unchanged
  /// rebind can be skipped without touching the registry.
  std::vector<std::size_t> worker_nodes_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t participants_ = 0;
  std::size_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

/// Process-wide default pool, sized once from `threads` on first use.
/// Subsequent calls ignore the argument and return the same pool.
ThreadPool& default_pool(std::size_t threads = 0);

}  // namespace sembfs
