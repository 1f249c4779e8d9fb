// QueryEngine: the concurrent BFS serving engine over one shared
// semi-external graph.
//
// Shape (the pool-exclusivity contract, parallel/thread_pool.hpp): ONE
// dispatcher thread owns the ThreadPool and interleaves every query's
// work through it —
//
//   clients ── submit() ──> hot-root result cache ──> hit: finalized here
//                 │               (miss)
//                 ├── tenant quota / bounded queue ──> reject
//                 └──> admission deque ──> dispatcher ──> ThreadPool
//                                             │
//                                             ├─ program sessions
//                                             │  (BFS on a pooled status
//                                             │   slot, or analytics; one
//                                             │   superstep per tick, high
//                                             │   lane admitted first)
//                                             └─ one MS-BFS batch
//                                                (≤64 lanes, one level
//                                                 per tick, cost-aware
//                                                 batch formation)
//
// Queries marked batchable ride the MS-BFS kernel (serve/ms_bfs.hpp): up
// to 64 roots per traversal, same-root queries deduped onto one lane,
// total riders capped by max_batch_queries. Batch formation is
// traffic-shaped by default (PlannerMode::CostAware): the dispatcher
// captures a PlannerInput — root degrees, deadline slacks, priorities,
// and one device-congestion sample — and the planner orders high-priority
// entries first, then by laxity (slack minus predicted cost), so a cheap
// near-deadline query jumps ahead of an expensive slack one
// (serve/batch_planner.hpp, serve/cost_model.hpp). Non-batchable queries
// each get an engine::ProgramSession over a BfsProgram borrowing a status
// slot (serve/slot_pool.hpp), the high lane admitted before the normal
// one; analytics queries run through the same session loop. Concurrency-of-service is
// level interleaving: every active query advances one level per
// dispatcher tick, so a deep search cannot starve short ones, and each
// level still uses the whole pool.
//
// Admission is traffic-shaped three ways: per-tenant quotas (a tenant at
// its accepted-and-unfinished cap is rejected immediately, billed to
// serve.tenant.<id>.*), a high/normal priority lane pair (high_reserve
// keeps headroom only the high lane may use), and a bounded bytes-sized
// result cache for popular roots (cache_bytes) — a hit is finalized
// inside submit() without touching the dispatcher, keyed on
// root + options + graph generation.
//
// Mutable graphs (docs/MUTATIONS.md): constructed over a MutableGraph,
// the engine serves with snapshot isolation — every admission (session,
// batch, analytics) pins the latest published GraphSnapshot for its whole
// run, so a traversal in flight across an apply()/compact() keeps reading
// one consistent merged view while new admissions see the new version.
// The publish hook keeps the result cache honest: a delta with deletions
// bumps the cache generation (drop everything); an insert-only delta
// MIGRATES the cached full traversals instead, patching each level/parent
// array through the incremental repair kernel (bfs/repair.hpp) and
// re-inserting it under the new generation; a compaction publish changes
// no logical edge, so the cache is left untouched. Results computed on a
// pre-publication snapshot carry the generation captured at admission and
// are dropped by the generation-checked insert rather than cached under
// the new key space.
//
// Deadlines are end-to-end from submit() — a query can expire while
// queued (the backpressure signal) or mid-search (the session/batch stops
// at the next level boundary and the partial traversal is returned).
//
// Fault containment: a session query whose I/O error budget is exhausted
// beyond the degrade path fails ALONE — the NvmIoError is caught per
// query and neighbors keep running. A batch shares one traversal, so its
// blast radius is the batch (documented in docs/SERVING.md); in the
// external-forward scenarios batches run entirely on the DRAM backward
// side and cannot take device faults at all.
//
// Determinism: with autostart=false, submit the whole trace, then
// start(); batch formation then depends only on the captured
// PlannerInput (which a PlannerLog can record, like TraceLog records
// SwitchPolicy decisions), so a seeded trace replays byte-identical
// results (tests/test_serve_*).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bfs/hybrid_bfs.hpp"
#include "engine/pagerank_program.hpp"
#include "graph/mutable_graph.hpp"
#include "engine/triangle_program.hpp"
#include "numa/topology.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batch_planner.hpp"
#include "serve/cost_model.hpp"
#include "serve/ms_bfs.hpp"
#include "serve/query.hpp"
#include "serve/result_cache.hpp"
#include "serve/slot_pool.hpp"

namespace sembfs::serve {

struct EngineConfig {
  /// Admission queue bound; submit() beyond this is Rejected immediately.
  std::size_t queue_capacity = 256;
  /// Queue slots only Priority::High submissions may occupy (must be <
  /// queue_capacity). Normal traffic is rejected once the queue reaches
  /// capacity - high_reserve, so a burst cannot starve the high lane of
  /// admission. 0 = no reserved headroom.
  std::size_t high_reserve = 0;
  /// BfsStatus slots = concurrent non-batched BFS queries.
  std::size_t session_slots = 4;
  /// Concurrent analytics queries (each owns its program state — DRAM for
  /// labels/ranks — so the cap bounds memory, not status slots).
  std::size_t analytics_slots = 2;
  /// Lanes per MS-BFS batch (1..MsBfsBatch::kMaxBatch).
  std::size_t max_batch = MsBfsBatch::kMaxBatch;
  /// Cap on TOTAL queries one batch may absorb, same-root riders
  /// included (0 = unlimited). Without it a skewed root distribution lets
  /// one batch swallow the whole queue as riders of a single lane —
  /// unbounded finalize/copy cost and no deadline culling until the batch
  /// retires.
  std::size_t max_batch_queries = 2 * MsBfsBatch::kMaxBatch;
  /// Batch formation policy. CostAware is the serving default; Fifo is
  /// the measurable baseline (--serve-planner fifo).
  PlannerMode planner = PlannerMode::CostAware;
  /// Cost-model constants for the CostAware planner.
  CostModelParams cost;
  /// Records every (PlannerInput, PlanDecision) pair; nullptr = off.
  PlannerLog* planner_log = nullptr;
  /// Per-tenant cap on accepted-and-unfinished queries; a tenant at the
  /// cap is rejected immediately. 0 = unlimited.
  std::uint64_t tenant_quota = 0;
  /// Hot-root result cache capacity in bytes; 0 disables the cache.
  std::size_t cache_bytes = 0;
  /// Deadline applied when QueryOptions::deadline_ms <= 0; 0 = none.
  double default_deadline_ms = 0.0;
  /// Start the dispatcher in the constructor. false = deferred start for
  /// deterministic trace replay: submit everything, then start().
  bool autostart = true;
  /// Template for program sessions, BFS and analytics (cancel is
  /// overwritten per query).
  BfsConfig bfs;
  /// MS-BFS kernel knobs shared by every batch.
  MsBfsConfig msbfs;
  /// Engine-wide analytics knobs (per-query overrides are not exposed —
  /// mixed traffic shares one tuning, like `bfs` above).
  engine::PageRankOptions pagerank;
  engine::TriangleOptions triangles;
};

/// Engine-lifetime totals, independent of the obs registry (always on,
/// plain counters — the dispatcher is the only writer).
struct EngineStats {
  std::uint64_t submitted = 0;   ///< every submit() call, rejects included
  std::uint64_t rejected = 0;
  std::uint64_t quota_rejected = 0;  ///< subset of rejected: tenant quota
  std::uint64_t done = 0;            ///< cache hits included
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t high_deadline_expired = 0;  ///< subset: Priority::High
  std::uint64_t session_queries = 0;  ///< BFS served by a program session
  std::uint64_t batched_queries = 0;  ///< served by an MS-BFS lane
  std::uint64_t batches = 0;
  std::uint64_t analytics_queries = 0;  ///< analytics program sessions
  std::uint64_t cache_hits = 0;         ///< served from the result cache
  // Mutable-graph integration (zero without an attached MutableGraph).
  std::uint64_t snapshots_published = 0;     ///< publish-hook invocations
  std::uint64_t cache_entries_migrated = 0;  ///< repaired across a publish
  std::uint64_t cache_entries_dropped = 0;   ///< invalidated by a publish
};

class QueryEngine {
 public:
  /// The graph, topology and pool must outlive the engine. While the
  /// engine runs the pool belongs to its dispatcher exclusively.
  QueryEngine(GraphStorage storage, const NumaTopology& topology,
              ThreadPool& pool, EngineConfig config = {});

  /// Serves a mutable graph with snapshot isolation: admissions pin the
  /// latest published snapshot, and the engine registers the graph's
  /// publish hook (released in the destructor) to track new versions and
  /// migrate/invalidate the result cache. The graph must outlive the
  /// engine; no other publish hook may be registered while it runs.
  QueryEngine(MutableGraph& graph, const NumaTopology& topology,
              ThreadPool& pool, EngineConfig config = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Thread-safe. Returns the query handle in every case — a rejected
  /// query comes back already finalized with QueryState::Rejected, and a
  /// result-cache hit comes back already finalized Done with
  /// QueryResult::cache_hit set.
  QueryRef submit(Vertex root, QueryOptions options = {});

  /// Submits a whole-graph analytics query (kind != Bfs); the root concept
  /// does not apply. Analytics queries are never batched or cached — each
  /// runs its own engine::ProgramSession, one superstep per dispatcher
  /// tick, with the same per-query fault containment as sessions.
  QueryRef submit_analytics(QueryKind kind, QueryOptions options = {});

  /// Starts the dispatcher (no-op when already started / autostart).
  void start();
  /// Blocks until every accepted query is terminal. Requires a started
  /// dispatcher.
  void drain();
  /// Stops admissions, drains everything in flight, joins the dispatcher.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Drops every cached result (generation bump). Mutable-graph engines
  /// do this automatically through the publish hook; this is the manual
  /// escape hatch (and the sealed-engine invalidation path for callers
  /// that mutate storage out of band). No-op when the cache is disabled.
  void invalidate_cache();

  [[nodiscard]] EngineStats stats() const;
  /// Result-cache counters; zeros when the cache is disabled.
  [[nodiscard]] ResultCacheStats cache_stats() const;
  [[nodiscard]] std::size_t queue_depth() const;
  /// Accepted queries not yet terminal (queued + executing).
  [[nodiscard]] std::uint64_t in_flight() const;
  [[nodiscard]] const EngineConfig& config() const noexcept {
    return config_;
  }

 private:
  struct ActiveProgram;
  struct ActiveBatch;
  /// Per-tenant admission state: the quota count plus the lazily resolved
  /// serve.tenant.<id>.* counters.
  struct TenantState {
    std::uint64_t in_flight = 0;
    obs::Counter* submitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* completed = nullptr;
  };

  void dispatcher_loop();
  /// Common admission path for BFS and analytics submissions.
  QueryRef submit_impl(Vertex root, QueryOptions options);
  /// Finalizes queued queries whose token fired before execution started.
  void cull_queued(std::deque<QueryRef>& queued);
  /// Starts a program session for each queued query while capacity lasts:
  /// a free status slot for BFS, an analytics slot otherwise.
  void admit_programs(std::deque<QueryRef>& queued,
                      std::vector<ActiveProgram>& programs);
  /// One superstep of every program session; finalizes finished queries
  /// and returns their status slots to the pool.
  void step_programs(std::vector<ActiveProgram>& programs);
  [[nodiscard]] std::unique_ptr<ActiveBatch> make_batch(
      std::deque<QueryRef>& queued);
  /// One batch tick: cull fired riders, run one level, finalize finished
  /// riders. True when the batch is finished and should be dropped.
  bool tick_batch(ActiveBatch& batch);

  /// Finalizes `query`, updates stats/gauges, feeds the result cache
  /// (insert checked against `cache_generation`, the generation captured
  /// when the query's snapshot was pinned), wakes drain() waiters.
  void finalize_query(const QueryRef& query, QueryResult result,
                      std::uint64_t cache_generation);

  /// Root degree without device I/O (0 when only external forward storage
  /// could answer) — the planner must never block on the device. Degree
  /// reads through `storage`'s delta overlay when one is present.
  [[nodiscard]] static std::int64_t cheap_degree(const GraphStorage& storage,
                                                 Vertex v);

  /// The view new work runs on: pins (via `pin`) the latest published
  /// snapshot when a mutable graph is attached, else the sealed storage
  /// the engine was built over. `cache_generation` receives the result
  /// cache's current generation, captured atomically with the pin (both
  /// under mutex_, which the publish hook also holds while it advances
  /// them) so a result can never be cached under a newer key space than
  /// the view it was computed on.
  [[nodiscard]] GraphStorage resolve_storage(
      std::shared_ptr<const GraphSnapshot>& pin,
      std::uint64_t& cache_generation) const;

  /// MutableGraph publish hook: records the new snapshot for future
  /// admissions and migrates or invalidates the result cache. Runs on the
  /// writer's thread, serialized by the graph's writer lock.
  void on_publish(const std::shared_ptr<const GraphSnapshot>& snapshot);

  /// Resolves (lazily creating) the tenant's state; mutex_ must be held.
  TenantState& tenant_state_locked(std::uint32_t tenant);

  /// The construction-time storage view. Sealed-storage engines use it
  /// for every query (the caller guarantees its lifetime); mutable-graph
  /// engines must NOT dereference it after the first publication — the
  /// snapshot it borrows from may have been compacted away. Admissions
  /// resolve latest_ instead.
  GraphStorage storage_;
  Vertex vertex_count_ = 0;  ///< invariant across publications
  MutableGraph* mutable_graph_ = nullptr;  ///< null: sealed-storage engine
  /// Latest published snapshot (mutable-graph engines only); guarded by
  /// mutex_.
  std::shared_ptr<const GraphSnapshot> latest_;
  NumaTopology topology_;  ///< by value: ctor arg may be a temporary
  ThreadPool& pool_;
  EngineConfig config_;
  StatusSlotPool slots_;
  std::unique_ptr<ResultCache> cache_;  ///< null when cache_bytes == 0
  CongestionProbe probe_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< wakes the dispatcher
  std::condition_variable drain_cv_;  ///< wakes drain() waiters
  std::deque<QueryRef> queue_;        ///< admission order preserved
  std::unordered_map<std::uint32_t, TenantState> tenants_;
  std::uint64_t in_flight_ = 0;
  bool stop_ = false;
  bool started_ = false;
  QueryId next_id_ = 1;
  EngineStats stats_;
  std::thread dispatcher_;

  // Observability handles (resolved once; add/record gated on enabled()).
  obs::Counter* obs_submitted_;
  obs::Counter* obs_rejected_;
  obs::Counter* obs_quota_rejected_;
  obs::Counter* obs_done_;
  obs::Counter* obs_failed_;
  obs::Counter* obs_cancelled_;
  obs::Counter* obs_deadline_expired_;
  obs::Counter* obs_high_deadline_expired_;
  obs::Counter* obs_session_queries_;
  obs::Counter* obs_batched_queries_;
  obs::Counter* obs_batches_;
  obs::Counter* obs_analytics_queries_;
  obs::Gauge* obs_queue_depth_;
  obs::Gauge* obs_in_flight_;
  obs::Histogram* obs_queue_wait_us_;
  obs::Histogram* obs_exec_us_;
  obs::Histogram* obs_batch_lanes_;
};

}  // namespace sembfs::serve
