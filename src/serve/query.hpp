// One BFS query flowing through the serving engine: the client-facing
// handle (wait/cancel/result) plus the engine-facing bookkeeping (state
// machine, cancel token, timestamps).
//
// Lifecycle:
//
//   submit() ── admission ──> Queued ──> Running ──> a terminal state
//        └── queue full ──> Rejected (terminal immediately)
//
// Terminal states: Done (ran to exhaustion or its max_levels cap), Failed
// (an I/O error escaped containment), Cancelled (the client's cancel() was
// observed), DeadlineExpired (the end-to-end deadline — queue wait
// included — passed before the search finished; a query can expire while
// still queued, which is the admission-control backpressure signal), and
// Rejected (bounded queue full at submit).
//
// The Query object is shared between the submitting client and the engine
// dispatcher (via std::shared_ptr), so it owns its own mutex/cv; the
// engine finalizes exactly once, clients may wait()/poll from any thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bfs/cancel.hpp"
#include "graph/types.hpp"

namespace sembfs::serve {

using QueryId = std::uint64_t;

enum class QueryState {
  Queued,
  Running,
  Done,
  Failed,
  Cancelled,
  DeadlineExpired,
  Rejected,
};

[[nodiscard]] const char* to_string(QueryState state) noexcept;

/// True for the states a query can never leave.
[[nodiscard]] constexpr bool is_terminal(QueryState state) noexcept {
  return state != QueryState::Queued && state != QueryState::Running;
}

/// What the query computes. Bfs is the original root-driven traversal;
/// the rest are whole-graph analytics served by the vertex-program engine
/// (engine/program_session.hpp), one superstep per dispatcher tick.
enum class QueryKind {
  Bfs,
  Components,
  PageRank,
  Triangles,
};

[[nodiscard]] const char* to_string(QueryKind kind) noexcept;

/// Admission lane. High-lane queries drain first at every stage — the
/// dispatcher admits them before normal traffic and the cost-aware batch
/// planner orders them ahead of every normal entry — and the engine can
/// reserve admission-queue headroom for them (EngineConfig::high_reserve).
enum class Priority {
  Normal,
  High,
};

[[nodiscard]] const char* to_string(Priority priority) noexcept;

struct QueryOptions {
  /// Set via QueryEngine::submit_analytics(); plain submit() serves Bfs.
  QueryKind kind = QueryKind::Bfs;
  /// End-to-end deadline in milliseconds, measured from submit() — queue
  /// wait counts against it. <= 0 means the engine's default; a default of
  /// 0 means no deadline.
  double deadline_ms = 0.0;
  /// Stop after this many BFS levels (k-hop neighborhood); 0 = unbounded.
  std::int32_t max_levels = 0;
  /// May this query be packed into an MS-BFS batch? Batched queries share
  /// one traversal (and its fault blast radius) with up to 63 others; a
  /// non-batchable query always gets its own program session.
  bool batchable = true;
  /// Admission lane (see Priority above).
  Priority priority = Priority::Normal;
  /// Tenant the query is billed to. With EngineConfig::tenant_quota > 0 a
  /// tenant whose accepted-and-unfinished count reaches the quota is
  /// rejected immediately ("tenant quota exceeded"); per-tenant
  /// serve.tenant.<id>.* counters track submitted/rejected/completed.
  std::uint32_t tenant = 0;
};

/// Everything the engine hands back for one finished query. Level/parent
/// vectors are copies — the status slot or batch lane that produced them
/// is already recycled by the time the client reads this.
struct QueryResult {
  Vertex root = kNoVertex;
  QueryKind kind = QueryKind::Bfs;
  QueryState state = QueryState::Queued;
  std::string error;                ///< human-readable, Failed only
  std::int32_t depth = 0;           ///< levels executed
  std::int64_t visited = 0;         ///< vertices reached (root included)
  bool degraded = false;            ///< any level completed via the fallback
  std::int32_t degraded_levels = 0;
  std::uint64_t io_failures = 0;    ///< contained fetch failures
  bool batched = false;             ///< served by the MS-BFS kernel
  /// Served from the hot-root result cache at submit() — the query never
  /// entered the admission queue or touched the dispatcher.
  bool cache_hit = false;
  double queue_wait_ms = 0.0;       ///< submit -> first level
  double exec_ms = 0.0;             ///< first level -> finalize
  /// BFS depth per vertex (-1 = unreached). Always populated for queries
  /// that ran; empty for Rejected and queued-expired queries.
  std::vector<std::int32_t> level;
  /// BFS tree (-1 = unreached). Populated when the execution path records
  /// parents (sessions always do; batches per EngineConfig).
  std::vector<Vertex> parent;

  // --- analytics payload (populated per kind, empty/0 otherwise) ---
  std::int32_t supersteps = 0;        ///< engine supersteps executed
  std::vector<Vertex> labels;         ///< Components: per-vertex label
  std::int64_t component_count = 0;   ///< Components
  std::vector<double> ranks;          ///< PageRank: per-vertex rank
  std::int64_t triangles = 0;         ///< Triangles: global count
};

/// Shared client/engine query object. Clients hold it as a QueryRef.
class Query {
 public:
  Query(QueryId id, Vertex root, QueryOptions options)
      : id_(id), root_(root), options_(options) {}

  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  [[nodiscard]] QueryId id() const noexcept { return id_; }
  [[nodiscard]] Vertex root() const noexcept { return root_; }
  [[nodiscard]] const QueryOptions& options() const noexcept {
    return options_;
  }

  [[nodiscard]] QueryState state() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return state_;
  }
  [[nodiscard]] bool finished() const { return is_terminal(state()); }

  /// Requests cooperative cancellation. The engine observes the token at
  /// level granularity; an already-terminal query is unaffected.
  void cancel() noexcept { token_.request_cancel(); }

  /// Blocks until the query reaches a terminal state.
  void wait() const {
    std::unique_lock<std::mutex> lock{mutex_};
    cv_.wait(lock, [&] { return is_terminal(state_); });
  }
  /// Timed wait; true when terminal.
  bool wait_for_ms(double ms) const {
    std::unique_lock<std::mutex> lock{mutex_};
    return cv_.wait_for(lock,
                        std::chrono::duration<double, std::milli>{ms},
                        [&] { return is_terminal(state_); });
  }

  /// The result; valid only once finished() (asserted via the state).
  [[nodiscard]] const QueryResult& result() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return result_;
  }

 private:
  friend class QueryEngine;

  /// Engine-side: Queued -> Running.
  void mark_running() {
    const std::lock_guard<std::mutex> lock{mutex_};
    state_ = QueryState::Running;
  }
  /// Engine-side: moves to a terminal state exactly once and wakes
  /// waiters. The result's state field is forced to match.
  void finalize(QueryResult result) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      if (is_terminal(state_)) return;
      state_ = result.state;
      result_ = std::move(result);
    }
    cv_.notify_all();
  }

  const QueryId id_;
  const Vertex root_;
  const QueryOptions options_;
  CancelToken token_;
  /// submit() timestamp (engine-side, for queue-wait accounting).
  std::chrono::steady_clock::time_point submitted_at_{};

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  QueryState state_ = QueryState::Queued;
  QueryResult result_;
};

using QueryRef = std::shared_ptr<Query>;

}  // namespace sembfs::serve
