#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <utility>

#include "bfs/repair.hpp"
#include "engine/bfs_program.hpp"
#include "engine/components_program.hpp"
#include "engine/program_session.hpp"
#include "nvm/fault_plan.hpp"
#include "util/contracts.hpp"

namespace sembfs::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

QueryState state_for(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::Cancelled:
      return QueryState::Cancelled;
    case StopReason::Deadline:
      return QueryState::DeadlineExpired;
    case StopReason::None:
      break;
  }
  return QueryState::Done;
}

}  // namespace

/// One in-flight non-batched query (dispatcher-local): its vertex program
/// plus the engine session driving it one superstep per tick. A BFS
/// program borrows a pooled status slot; an analytics program owns its
/// per-vertex state (labels, ranks, cursor).
struct QueryEngine::ActiveProgram {
  QueryRef query;
  /// Snapshot pinned at admission (null on sealed-storage engines): the
  /// whole program runs on this one merged view.
  std::shared_ptr<const GraphSnapshot> pinned;
  std::uint64_t cache_generation = 0;  ///< for the generation-checked insert
  BfsStatus* slot = nullptr;  ///< borrowed from the pool (BFS only)
  std::unique_ptr<engine::VertexProgram> program;
  std::unique_ptr<engine::ProgramSession> session;
  Clock::time_point started{};
  double queue_wait_ms = 0.0;
};

/// The in-flight MS-BFS batch plus its riders (dispatcher-local). Several
/// riders can share a lane (root dedup); a lane is deactivated only once
/// every rider on it is terminal.
struct QueryEngine::ActiveBatch {
  struct Rider {
    QueryRef query;
    std::size_t lane = 0;
    double queue_wait_ms = 0.0;
    bool finished = false;
  };
  std::unique_ptr<MsBfsBatch> batch;
  std::shared_ptr<const GraphSnapshot> pinned;  ///< view at formation
  std::uint64_t cache_generation = 0;
  std::vector<Rider> riders;
  std::vector<std::size_t> lane_riders;  ///< live riders per lane
  Clock::time_point started{};
};

QueryEngine::QueryEngine(GraphStorage storage, const NumaTopology& topology,
                         ThreadPool& pool, EngineConfig config)
    : storage_(storage),
      vertex_count_(storage.vertex_count()),
      topology_(topology),
      pool_(pool),
      config_(std::move(config)),
      slots_(storage_.vertex_count(),
             config_.session_slots >= 1 ? config_.session_slots : 1) {
  SEMBFS_EXPECTS(config_.queue_capacity >= 1);
  SEMBFS_EXPECTS(config_.high_reserve < config_.queue_capacity);
  SEMBFS_EXPECTS(config_.max_batch >= 1 &&
                 config_.max_batch <= MsBfsBatch::kMaxBatch);
  if (config_.cache_bytes > 0)
    cache_ = std::make_unique<ResultCache>(config_.cache_bytes);
  auto& reg = obs::metrics();
  obs_submitted_ = &reg.counter("serve.submitted");
  obs_rejected_ = &reg.counter("serve.rejected");
  obs_quota_rejected_ = &reg.counter("serve.quota_rejected");
  obs_done_ = &reg.counter("serve.done");
  obs_failed_ = &reg.counter("serve.failed");
  obs_cancelled_ = &reg.counter("serve.cancelled");
  obs_deadline_expired_ = &reg.counter("serve.deadline_expired");
  obs_high_deadline_expired_ = &reg.counter("serve.high.deadline_expired");
  obs_session_queries_ = &reg.counter("serve.session_queries");
  obs_batched_queries_ = &reg.counter("serve.batched_queries");
  obs_batches_ = &reg.counter("serve.batches");
  obs_analytics_queries_ = &reg.counter("serve.analytics_queries");
  obs_queue_depth_ = &reg.gauge("serve.queue_depth");
  obs_in_flight_ = &reg.gauge("serve.in_flight");
  obs_queue_wait_us_ = &reg.histogram("serve.queue_wait_us");
  obs_exec_us_ = &reg.histogram("serve.exec_us");
  obs_batch_lanes_ = &reg.histogram("serve.batch_lanes");
  if (config_.autostart) start();
}

QueryEngine::QueryEngine(MutableGraph& graph, const NumaTopology& topology,
                         ThreadPool& pool, EngineConfig config)
    // The delegated constructor only needs vertex_count() from this
    // temporary view; the snapshot is re-pinned durably right below.
    // Autostart is suppressed so the dispatcher cannot observe the
    // half-initialized mutable-graph members — it starts at the end of
    // this body, once the snapshot is pinned and the hook registered.
    : QueryEngine(graph.snapshot()->storage(), topology, pool, [&] {
        EngineConfig deferred = config;
        deferred.autostart = false;
        return deferred;
      }()) {
  mutable_graph_ = &graph;
  latest_ = graph.snapshot();
  storage_ = latest_->storage();  // now borrows from the pinned snapshot
  graph.set_publish_hook(
      [this](const std::shared_ptr<const GraphSnapshot>& snapshot) {
        on_publish(snapshot);
      });
  if (config.autostart) start();
}

QueryEngine::~QueryEngine() {
  // Unregister before teardown: set_publish_hook serializes on the
  // graph's writer lock, so no hook can be mid-flight once it returns.
  if (mutable_graph_ != nullptr) mutable_graph_->set_publish_hook({});
  shutdown();
}

QueryEngine::TenantState& QueryEngine::tenant_state_locked(
    std::uint32_t tenant) {
  const auto [it, inserted] = tenants_.try_emplace(tenant);
  if (inserted) {
    // Lazy resolution: tenant ids are open-ended, so serve.tenant.<id>.*
    // counters are registered on a tenant's first submission.
    auto& reg = obs::metrics();
    char name[64];
    std::snprintf(name, sizeof(name), "serve.tenant.%u.submitted", tenant);
    it->second.submitted = &reg.counter(name);
    std::snprintf(name, sizeof(name), "serve.tenant.%u.rejected", tenant);
    it->second.rejected = &reg.counter(name);
    std::snprintf(name, sizeof(name), "serve.tenant.%u.completed", tenant);
    it->second.completed = &reg.counter(name);
  }
  return it->second;
}

QueryRef QueryEngine::submit(Vertex root, QueryOptions options) {
  // Checked against the cached count, not storage_: for mutable-graph
  // engines storage_ borrows from the construction-time snapshot, whose
  // base generation may have been compacted away by now. The vertex set
  // is invariant across publications.
  SEMBFS_EXPECTS(root >= 0 && root < vertex_count_);
  return submit_impl(root, options);
}

QueryRef QueryEngine::submit_analytics(QueryKind kind, QueryOptions options) {
  SEMBFS_EXPECTS(kind != QueryKind::Bfs);
  options.kind = kind;
  options.batchable = false;  // analytics never ride the MS-BFS kernel
  return submit_impl(kNoVertex, options);
}

QueryRef QueryEngine::submit_impl(Vertex root, QueryOptions options) {
  const std::lock_guard<std::mutex> lock{mutex_};
  auto query = std::make_shared<Query>(next_id_++, root, options);
  query->submitted_at_ = Clock::now();
  ++stats_.submitted;
  TenantState& tenant = tenant_state_locked(options.tenant);
  if (obs::enabled()) {
    obs_submitted_->add(1);
    tenant.submitted->add(1);
  }

  // Hot-root cache: a hit is finalized right here — no queue slot, no
  // dispatcher wakeup, no device traffic. Only full BFS answers are
  // cached; the key includes every option that changes the answer, so an
  // options mismatch is just a miss.
  if (!stop_ && cache_ != nullptr && options.kind == QueryKind::Bfs) {
    if (auto hit = cache_->lookup(root, options)) {
      ++stats_.done;
      ++stats_.cache_hits;
      if (obs::enabled()) {
        obs_done_->add(1);
        tenant.completed->add(1);
      }
      QueryResult result = *hit;  // the client owns its copy
      result.state = QueryState::Done;
      result.cache_hit = true;
      result.queue_wait_ms = 0.0;
      result.exec_ms = 0.0;
      query->finalize(std::move(result));
      return query;
    }
  }

  const char* reject = nullptr;
  bool quota = false;
  if (stop_) {
    reject = "engine is shut down";
  } else if (config_.tenant_quota > 0 &&
             tenant.in_flight >= config_.tenant_quota) {
    reject = "tenant quota exceeded";
    quota = true;
  } else {
    // The last high_reserve queue slots belong to the high lane: normal
    // traffic saturating the queue cannot lock the high lane out of
    // admission.
    const std::size_t limit = options.priority == Priority::High
                                  ? config_.queue_capacity
                                  : config_.queue_capacity -
                                        config_.high_reserve;
    if (queue_.size() >= limit) reject = "admission queue full";
  }
  if (reject != nullptr) {
    ++stats_.rejected;
    if (quota) ++stats_.quota_rejected;
    if (obs::enabled()) {
      obs_rejected_->add(1);
      if (quota) obs_quota_rejected_->add(1);
      tenant.rejected->add(1);
    }
    QueryResult result;
    result.root = root;
    result.kind = options.kind;
    result.state = QueryState::Rejected;
    result.error = reject;
    query->finalize(std::move(result));
    return query;
  }

  const double deadline = options.deadline_ms > 0.0
                              ? options.deadline_ms
                              : config_.default_deadline_ms;
  if (deadline > 0.0) query->token_.set_deadline_after_ms(deadline);
  queue_.push_back(query);
  ++in_flight_;
  ++tenant.in_flight;
  if (obs::enabled()) {
    obs_queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    obs_in_flight_->set(static_cast<std::int64_t>(in_flight_));
  }
  work_cv_.notify_one();
  return query;
}

void QueryEngine::start() {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (started_) return;
  started_ = true;
  dispatcher_ = std::thread{[this] { dispatcher_loop(); }};
}

void QueryEngine::drain() {
  std::unique_lock<std::mutex> lock{mutex_};
  SEMBFS_EXPECTS(started_ || in_flight_ == 0);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void QueryEngine::shutdown() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
    if (!started_) {
      // Dispatcher never ran: nothing will serve the queue — fail it here.
      for (const QueryRef& query : queue_) {
        QueryResult result;
        result.root = query->root();
        result.state = QueryState::Cancelled;
        result.error = "engine shut down before start()";
        TenantState& tenant = tenant_state_locked(query->options().tenant);
        SEMBFS_ASSERT(tenant.in_flight > 0);
        --tenant.in_flight;
        query->finalize(std::move(result));
        ++stats_.cancelled;
        --in_flight_;
      }
      queue_.clear();
    }
  }
  work_cv_.notify_all();
  drain_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void QueryEngine::invalidate_cache() {
  if (cache_ != nullptr) cache_->bump_generation();
}

EngineStats QueryEngine::stats() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

ResultCacheStats QueryEngine::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : ResultCacheStats{};
}

std::size_t QueryEngine::queue_depth() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return queue_.size();
}

std::uint64_t QueryEngine::in_flight() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return in_flight_;
}

std::int64_t QueryEngine::cheap_degree(const GraphStorage& storage, Vertex v) {
  // Any backward graph answers degree from DRAM in one lookup, and a
  // pure-DRAM forward stack answers it without the device. Otherwise
  // (external forward only) report 0 and let the cost model fall
  // back to its base term — a planner that blocks on chunk I/O to plan
  // around chunk I/O would defeat itself. GraphStorage::degree() already
  // adds the delta adjustment, so mutable-graph planning sees merged-view
  // degrees at DRAM cost.
  if (attached(storage.backward) ||
      std::holds_alternative<const ForwardGraph*>(storage.forward))
    return storage.degree(v);
  return 0;
}

GraphStorage QueryEngine::resolve_storage(
    std::shared_ptr<const GraphSnapshot>& pin,
    std::uint64_t& cache_generation) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  cache_generation = cache_ != nullptr ? cache_->generation() : 0;
  if (mutable_graph_ == nullptr) return storage_;
  pin = latest_;
  return pin->storage();
}

void QueryEngine::on_publish(
    const std::shared_ptr<const GraphSnapshot>& snapshot) {
  std::vector<ResultCache::TakenEntry> taken;
  const DeltaBuffer* delta = nullptr;
  {
    // One critical section advances the snapshot AND the cache
    // generation: resolve_storage() captures its (pin, generation) pair
    // under the same mutex, so no admission can see the new snapshot with
    // the old generation or vice versa.
    const std::lock_guard<std::mutex> lock{mutex_};
    latest_ = snapshot;
    ++stats_.snapshots_published;
    if (cache_ != nullptr) {
      delta = snapshot->delta();
      if (delta == nullptr) {
        // Compaction (or a no-op publish): the logical graph is
        // unchanged, so every cached answer is still exact — keep them.
      } else if (delta->has_deletes()) {
        // Deletions can lengthen distances; repair is out of scope, so
        // the whole cache is invalidated.
        stats_.cache_entries_dropped += cache_->stats().entries;
        cache_->bump_generation();
        delta = nullptr;
      } else {
        // Insert-only: drain now (under the lock, so no entry straddles
        // the generation line), repair off-lock below.
        taken = cache_->take_entries();
        cache_->bump_generation();
      }
    }
  }
  if (delta == nullptr || taken.empty()) return;

  // Migrate the drained full traversals: insertions only shorten
  // unit-weight distances, so each cached level/parent array is patched
  // by the incremental repair kernel against the (unchanged) base
  // adjacency and re-inserted under the new generation. Truncated k-hop
  // entries are not complete traversals and are dropped instead. The
  // graph's writer lock serializes publish hooks, so the generation
  // cannot move again while this loop re-inserts.
  const BackwardGraph& backward = snapshot->base().backward();
  std::uint64_t migrated = 0;
  std::uint64_t dropped = 0;
  for (ResultCache::TakenEntry& entry : taken) {
    bool kept = false;
    if (entry.max_levels <= 0) {
      QueryResult patched = *entry.result;
      const RepairOutcome outcome = repair_bfs_levels(
          backward, *delta, entry.root, patched.level, patched.parent);
      if (outcome.repaired) {
        patched.visited += outcome.newly_reached;
        std::int32_t depth = 0;
        for (const std::int32_t l : patched.level) depth = std::max(depth, l);
        patched.depth = depth;
        QueryOptions options;
        options.max_levels = entry.max_levels;
        cache_->insert(entry.root, options, patched);
        kept = true;
      }
    }
    kept ? ++migrated : ++dropped;
  }
  const std::lock_guard<std::mutex> lock{mutex_};
  stats_.cache_entries_migrated += migrated;
  stats_.cache_entries_dropped += dropped;
}

void QueryEngine::finalize_query(const QueryRef& query, QueryResult result,
                                 std::uint64_t cache_generation) {
  const QueryState state = result.state;
  if (obs::enabled()) {
    obs_queue_wait_us_->record(
        static_cast<std::uint64_t>(result.queue_wait_ms * 1e3));
    obs_exec_us_->record(static_cast<std::uint64_t>(result.exec_ms * 1e3));
  }
  // Feed the hot-root cache: only complete, non-degraded-to-empty Done
  // BFS answers (a deadline/cancel partial must never be served as the
  // full traversal). Degraded results are still exact trees, so they are
  // cacheable.
  if (cache_ != nullptr && state == QueryState::Done &&
      query->options().kind == QueryKind::Bfs && !result.level.empty())
    cache_->insert(query->root(), query->options(), result, cache_generation);
  query->finalize(std::move(result));
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    SEMBFS_ASSERT(in_flight_ > 0);
    --in_flight_;
    TenantState& tenant = tenant_state_locked(query->options().tenant);
    SEMBFS_ASSERT(tenant.in_flight > 0);
    --tenant.in_flight;
    if (obs::enabled()) tenant.completed->add(1);
    switch (state) {
      case QueryState::Done:
        ++stats_.done;
        if (obs::enabled()) obs_done_->add(1);
        break;
      case QueryState::Failed:
        ++stats_.failed;
        if (obs::enabled()) obs_failed_->add(1);
        break;
      case QueryState::Cancelled:
        ++stats_.cancelled;
        if (obs::enabled()) obs_cancelled_->add(1);
        break;
      case QueryState::DeadlineExpired:
        ++stats_.deadline_expired;
        if (query->options().priority == Priority::High) {
          ++stats_.high_deadline_expired;
          if (obs::enabled()) obs_high_deadline_expired_->add(1);
        }
        if (obs::enabled()) obs_deadline_expired_->add(1);
        break;
      default:
        SEMBFS_ASSERT(false && "finalized to a non-terminal state");
        break;
    }
    if (obs::enabled())
      obs_in_flight_->set(static_cast<std::int64_t>(in_flight_));
  }
  drain_cv_.notify_all();
}

void QueryEngine::cull_queued(std::deque<QueryRef>& queued) {
  std::size_t kept = 0;
  for (QueryRef& query : queued) {
    const StopReason stop = query->token_.should_stop();
    if (stop == StopReason::None) {
      queued[kept++] = std::move(query);
      continue;
    }
    QueryResult result;
    result.root = query->root();
    result.kind = query->options().kind;
    result.state = state_for(stop);
    result.queue_wait_ms = ms_since(query->submitted_at_);
    finalize_query(query, std::move(result), 0);  // never Done: no insert
  }
  queued.resize(kept);
}

void QueryEngine::admit_programs(std::deque<QueryRef>& queued,
                                 std::vector<ActiveProgram>& programs) {
  while (!queued.empty()) {
    const QueryKind kind = queued.front()->options().kind;
    BfsStatus* slot = nullptr;
    if (kind == QueryKind::Bfs) {
      slot = slots_.try_acquire();
      if (slot == nullptr) return;  // all slots busy: backpressure
    } else {
      const auto analytics = std::count_if(
          programs.begin(), programs.end(), [](const ActiveProgram& p) {
            return p.query->options().kind != QueryKind::Bfs;
          });
      if (static_cast<std::size_t>(analytics) >= config_.analytics_slots)
        return;
    }

    ActiveProgram active;
    active.query = std::move(queued.front());
    queued.pop_front();
    active.slot = slot;
    active.started = Clock::now();
    active.queue_wait_ms = ms_since(active.query->submitted_at_);
    const GraphStorage storage =
        resolve_storage(active.pinned, active.cache_generation);
    switch (kind) {
      case QueryKind::Bfs:
        active.program = std::make_unique<engine::BfsProgram>(
            *slot, active.query->root());
        break;
      case QueryKind::Components:
        active.program = std::make_unique<engine::ComponentsProgram>();
        break;
      case QueryKind::PageRank:
        active.program =
            std::make_unique<engine::PageRankProgram>(config_.pagerank);
        break;
      case QueryKind::Triangles:
        active.program =
            std::make_unique<engine::TriangleProgram>(config_.triangles);
        break;
    }
    BfsConfig bfs = config_.bfs;
    bfs.cancel = &active.query->token_;
    active.session = std::make_unique<engine::ProgramSession>(
        *active.program, storage, topology_, pool_, bfs);
    active.query->mark_running();
    programs.push_back(std::move(active));
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      ++(kind == QueryKind::Bfs ? stats_.session_queries
                                : stats_.analytics_queries);
    }
    if (obs::enabled())
      (kind == QueryKind::Bfs ? obs_session_queries_ : obs_analytics_queries_)
          ->add(1);
  }
}

void QueryEngine::step_programs(std::vector<ActiveProgram>& programs) {
  for (std::size_t i = 0; i < programs.size();) {
    ActiveProgram& active = programs[i];
    bool more = false;
    bool io_failed = false;
    std::string error;
    try {
      more = active.session->step();
    } catch (const NvmIoError& e) {
      // Per-query fault containment: this query fails alone; the graph,
      // pool and every neighbor query keep running.
      io_failed = true;
      error = e.what();
    }
    const std::int32_t executed = active.session->supersteps_executed();
    const std::int32_t max_levels = active.query->options().max_levels;
    const bool hit_cap = !io_failed && more && max_levels > 0 &&
                         executed >= max_levels;
    if (!io_failed && more && !hit_cap) {
      ++i;  // still running: next superstep on a later tick
      continue;
    }

    const QueryKind kind = active.query->options().kind;
    QueryResult result;
    result.root = active.query->root();
    result.kind = kind;
    result.queue_wait_ms = active.queue_wait_ms;
    result.exec_ms = ms_since(active.started);
    if (kind != QueryKind::Bfs) result.supersteps = executed;
    if (io_failed) {
      // No snapshot: the step unwound mid-superstep, so only the error and
      // the fatal failure count are reported.
      result.state = QueryState::Failed;
      result.error = std::move(error);
      result.io_failures = 1;
    } else {
      result.state =
          hit_cap ? QueryState::Done : state_for(active.session->stop_reason());
      result.io_failures = active.session->io_failures();
      result.degraded_levels = active.session->degraded_supersteps();
      result.degraded = result.degraded_levels > 0;
      switch (kind) {
        case QueryKind::Bfs: {
          // A done session hands the slot's arrays over whole; a
          // max_levels cut copies them. Either way they move on here.
          BfsResult bfs =
              static_cast<engine::BfsProgram&>(*active.program)
                  .snapshot_result(*active.session);
          result.depth = bfs.depth;
          result.visited = bfs.visited;
          result.level = std::move(bfs.level);
          result.parent = std::move(bfs.parent);
          break;
        }
        case QueryKind::Components: {
          auto& program =
              static_cast<engine::ComponentsProgram&>(*active.program);
          result.labels = program.labels();
          // Labels are component-minimum vertex ids, so distinct label
          // values can be counted with one flag pass.
          std::vector<bool> seen(result.labels.size(), false);
          for (const Vertex l : result.labels) {
            const auto idx = static_cast<std::size_t>(l);
            if (!seen[idx]) {
              seen[idx] = true;
              ++result.component_count;
            }
          }
          break;
        }
        case QueryKind::PageRank: {
          auto& program =
              static_cast<engine::PageRankProgram&>(*active.program);
          result.ranks = program.ranks();
          break;
        }
        case QueryKind::Triangles: {
          auto& program =
              static_cast<engine::TriangleProgram&>(*active.program);
          result.triangles = program.triangles();
          break;
        }
      }
    }
    if (active.slot != nullptr) slots_.release(active.slot);
    // Only Done BFS answers are cached (finalize_query checks the kind).
    finalize_query(active.query, std::move(result), active.cache_generation);
    programs.erase(programs.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

std::unique_ptr<QueryEngine::ActiveBatch> QueryEngine::make_batch(
    std::deque<QueryRef>& queued) {
  // One pin for the whole batch: the planner's degree probes and the
  // MS-BFS traversal read the same merged view.
  std::shared_ptr<const GraphSnapshot> pinned;
  std::uint64_t cache_generation = 0;
  const GraphStorage storage = resolve_storage(pinned, cache_generation);
  BatchPlan plan;
  if (config_.planner == PlannerMode::Fifo) {
    plan = plan_batch(queued, config_.max_batch, config_.max_batch_queries);
  } else {
    // Capture everything the planner may see at one instant — the plan is
    // then a pure function of this input (replayable, PlannerLog-traced).
    PlannerInput input;
    input.max_lanes = config_.max_batch;
    input.max_queries = config_.max_batch_queries;
    input.cost = config_.cost;
    input.congestion = probe_.sample();
    input.entries.reserve(queued.size());
    for (const QueryRef& query : queued) {
      PlannerInput::Entry entry;
      entry.root = query->root();
      entry.degree = cheap_degree(storage, entry.root);
      entry.slack_ms = query->token_.deadline_remaining_ms();
      entry.priority = query->options().priority;
      input.entries.push_back(entry);
    }
    const PlanDecision decision = plan_cost_batch(input);
    plan.roots = decision.roots;
    plan.lane_of = decision.lane_of;
    plan.queries.reserve(decision.picked.size());
    std::vector<bool> taken(queued.size(), false);
    for (const std::size_t idx : decision.picked) {
      plan.queries.push_back(queued[idx]);
      taken[idx] = true;
    }
    if (config_.planner_log != nullptr)
      config_.planner_log->record(PlannerSpan{std::move(input), decision});
    // Single compaction pass over the survivors (skipped roots keep their
    // relative admission order for the next batch).
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queued.size(); ++i)
      if (!taken[i]) queued[kept++] = std::move(queued[i]);
    queued.resize(kept);
  }
  if (plan.empty()) return nullptr;

  auto active = std::make_unique<ActiveBatch>();
  active->batch = std::make_unique<MsBfsBatch>(
      storage, topology_, pool_, std::span<const Vertex>{plan.roots},
      config_.msbfs);
  active->pinned = std::move(pinned);
  active->cache_generation = cache_generation;
  active->started = Clock::now();
  active->lane_riders.assign(plan.width(), 0);
  active->riders.reserve(plan.queries.size());
  for (std::size_t i = 0; i < plan.queries.size(); ++i) {
    ActiveBatch::Rider rider;
    rider.query = plan.queries[i];
    rider.lane = plan.lane_of[i];
    rider.queue_wait_ms = ms_since(rider.query->submitted_at_);
    rider.query->mark_running();
    ++active->lane_riders[rider.lane];
    active->riders.push_back(std::move(rider));
  }
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    ++stats_.batches;
    stats_.batched_queries += active->riders.size();
  }
  if (obs::enabled()) {
    obs_batches_->add(1);
    obs_batched_queries_->add(active->riders.size());
    obs_batch_lanes_->record(plan.width());
  }
  return active;
}

bool QueryEngine::tick_batch(ActiveBatch& active) {
  MsBfsBatch& batch = *active.batch;

  // Finalize a rider from its lane's (possibly partial) traversal.
  const auto finish_rider = [&](ActiveBatch::Rider& rider, QueryState state) {
    const std::size_t q = rider.lane;
    QueryResult result;
    result.root = batch.root(q);
    result.state = state;
    result.batched = true;
    result.depth = batch.depth(q);
    result.visited = batch.visited(q);
    result.queue_wait_ms = rider.queue_wait_ms;
    result.exec_ms = ms_since(active.started);
    result.level = batch.levels(q);  // copy: lanes may have several riders
    if (config_.msbfs.record_parents) result.parent = batch.parents(q);
    rider.finished = true;
    SEMBFS_ASSERT(active.lane_riders[q] > 0);
    if (--active.lane_riders[q] == 0 && batch.lane_live(q))
      batch.deactivate(q);
    finalize_query(rider.query, std::move(result), active.cache_generation);
  };

  // Cull riders whose token fired or whose level cap is met (level
  // granularity, same as sessions).
  for (ActiveBatch::Rider& rider : active.riders) {
    if (rider.finished) continue;
    const StopReason stop = rider.query->token_.should_stop();
    if (stop != StopReason::None) {
      finish_rider(rider, state_for(stop));
      continue;
    }
    const std::int32_t max_levels = rider.query->options().max_levels;
    if (max_levels > 0 && batch.levels_executed() >= max_levels)
      finish_rider(rider, QueryState::Done);
  }

  bool more = false;
  if (!batch.done()) {
    try {
      more = batch.step();
    } catch (const NvmIoError& e) {
      // Batched queries share one traversal, so they share its fault:
      // the blast radius of a device error is the batch, not the engine.
      for (ActiveBatch::Rider& rider : active.riders) {
        if (rider.finished) continue;
        QueryResult result;
        result.root = rider.query->root();
        result.state = QueryState::Failed;
        result.batched = true;
        result.error = e.what();
        result.io_failures = 1;
        result.queue_wait_ms = rider.queue_wait_ms;
        result.exec_ms = ms_since(active.started);
        rider.finished = true;
        finalize_query(rider.query, std::move(result),
                       active.cache_generation);
      }
      return true;  // drop the batch
    }
  }
  if (more) return false;

  for (ActiveBatch::Rider& rider : active.riders)
    if (!rider.finished) finish_rider(rider, QueryState::Done);
  return true;
}

void QueryEngine::dispatcher_loop() {
  std::deque<QueryRef> batchable;
  std::deque<QueryRef> unbatch_high;
  std::deque<QueryRef> unbatch_normal;
  std::deque<QueryRef> analytics_queued;
  std::vector<ActiveProgram> programs;
  std::unique_ptr<ActiveBatch> batch;

  for (;;) {
    {
      std::unique_lock<std::mutex> lock{mutex_};
      const bool idle = programs.empty() && batch == nullptr &&
                        batchable.empty() && unbatch_high.empty() &&
                        unbatch_normal.empty() && analytics_queued.empty();
      if (idle)
        work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      for (QueryRef& query : queue_) {
        if (query->options().kind != QueryKind::Bfs)
          analytics_queued.push_back(std::move(query));
        else if (!query->options().batchable)
          (query->options().priority == Priority::High ? unbatch_high
                                                       : unbatch_normal)
              .push_back(std::move(query));
        else
          batchable.push_back(std::move(query));
      }
      queue_.clear();
      if (obs::enabled()) obs_queue_depth_->set(0);
      if (stop_ && queue_.empty() && programs.empty() && batch == nullptr &&
          batchable.empty() && unbatch_high.empty() &&
          unbatch_normal.empty() && analytics_queued.empty())
        return;  // drained shutdown
    }

    // Deadlines are end-to-end: a query can expire before it ever runs.
    cull_queued(batchable);
    cull_queued(unbatch_high);
    cull_queued(unbatch_normal);
    cull_queued(analytics_queued);

    // High lane drains into the slot pool before normal — when slots are
    // the bottleneck, priority decides who waits.
    admit_programs(unbatch_high, programs);
    admit_programs(unbatch_normal, programs);
    admit_programs(analytics_queued, programs);
    if (batch == nullptr && !batchable.empty()) batch = make_batch(batchable);

    // One level of everything per tick — the interleaving that makes the
    // engine concurrent while the pool stays single-tenant. Analytics
    // supersteps interleave with BFS levels the same way.
    step_programs(programs);
    if (batch != nullptr && tick_batch(*batch)) batch.reset();
  }
}

}  // namespace sembfs::serve
