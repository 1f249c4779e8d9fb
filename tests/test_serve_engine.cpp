// QueryEngine behavior: admission control, deadlines, cancellation,
// correctness of served results (both execution paths), fault
// containment, and deterministic trace replay.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <filesystem>
#include <thread>

#include "analytics_references.hpp"
#include "bfs/reference_bfs.hpp"
#include "graph/external_csr.hpp"
#include "graph_fixtures.hpp"
#include "nvm/device_profile.hpp"
#include "nvm/nvm_device.hpp"
#include "serve/batch_planner.hpp"
#include "serve/load_gen.hpp"
#include "test_util.hpp"

namespace sembfs::serve {
namespace {

class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = generate_kronecker(fixtures::small_kronecker(10, 8, 17), pool_);
    partition_ = VertexPartition{edges_.vertex_count(), 2};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    full_ = build_csr(edges_, CsrBuildOptions{}, pool_);
    storage_ = GraphStorage{};
    storage_.forward = &forward_;
    storage_.backward = &backward_;
  }

  void expect_matches_reference(const QueryResult& result) {
    const ReferenceBfsResult ref = reference_bfs(full_, result.root);
    ASSERT_EQ(result.level.size(), ref.level.size());
    for (std::size_t v = 0; v < ref.level.size(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v])
          << "root=" << result.root << " v=" << v;
    EXPECT_EQ(result.visited, ref.visited);
  }

  ThreadPool pool_{4};
  NumaTopology topology_{2, 1};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  BackwardGraph backward_;
  Csr full_;
  GraphStorage storage_;
};

TEST_F(ServeEngineTest, BatchedQueriesMatchReference) {
  QueryEngine engine{storage_, topology_, pool_, EngineConfig{}};
  std::vector<QueryRef> queries;
  for (Vertex root = 0; root < 16; ++root)
    queries.push_back(engine.submit(root));
  for (const QueryRef& query : queries) {
    query->wait();
    ASSERT_EQ(query->state(), QueryState::Done) << query->result().error;
    EXPECT_TRUE(query->result().batched);
    expect_matches_reference(query->result());
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.done, 16u);
  EXPECT_EQ(stats.batched_queries, 16u);
  EXPECT_EQ(stats.session_queries, 0u);
}

TEST_F(ServeEngineTest, SessionQueriesMatchReference) {
  QueryEngine engine{storage_, topology_, pool_, EngineConfig{}};
  QueryOptions options;
  options.batchable = false;
  std::vector<QueryRef> queries;
  for (Vertex root = 0; root < 8; ++root)
    queries.push_back(engine.submit(root, options));
  for (const QueryRef& query : queries) {
    query->wait();
    ASSERT_EQ(query->state(), QueryState::Done) << query->result().error;
    EXPECT_FALSE(query->result().batched);
    expect_matches_reference(query->result());
  }
  EXPECT_EQ(engine.stats().session_queries, 8u);
}

TEST_F(ServeEngineTest, OneSlotAnswersAgainAfterAResultTookItsArrays) {
  // A finished session query's result takes the slot's parent and level
  // arrays; the slot's next query re-creates them and answers correctly,
  // and the first answer is left as it was.
  EngineConfig config;
  config.session_slots = 1;
  QueryEngine engine{storage_, topology_, pool_, config};
  QueryOptions options;
  options.batchable = false;
  Vertex a = 0;
  while (full_.degree(a) == 0) ++a;
  Vertex b = a + 1;
  while (full_.degree(b) == 0) ++b;
  const QueryRef first = engine.submit(a, options);
  first->wait();
  ASSERT_EQ(first->state(), QueryState::Done) << first->result().error;
  const std::vector<std::int32_t> first_level = first->result().level;
  const std::vector<Vertex> first_parent = first->result().parent;
  const QueryRef second = engine.submit(b, options);
  second->wait();
  ASSERT_EQ(second->state(), QueryState::Done) << second->result().error;
  expect_matches_reference(first->result());
  expect_matches_reference(second->result());
  EXPECT_EQ(first->result().level, first_level);
  EXPECT_EQ(first->result().parent, first_parent);
  EXPECT_EQ(second->result().parent[static_cast<std::size_t>(b)], b);
  EXPECT_EQ(engine.stats().session_queries, 2u);
}

TEST_F(ServeEngineTest, MixedPathsAgreeOnResults) {
  QueryEngine engine{storage_, topology_, pool_, EngineConfig{}};
  QueryOptions session;
  session.batchable = false;
  const Vertex root = 3;
  const QueryRef batched = engine.submit(root);
  const QueryRef solo = engine.submit(root, session);
  batched->wait();
  solo->wait();
  ASSERT_EQ(batched->state(), QueryState::Done);
  ASSERT_EQ(solo->state(), QueryState::Done);
  EXPECT_EQ(batched->result().level, solo->result().level);
  EXPECT_EQ(batched->result().visited, solo->result().visited);
}

TEST_F(ServeEngineTest, MixedBfsAndAnalyticsTraffic) {
  // Analytics programs share the dispatcher with BFS traffic: one
  // superstep per tick, interleaved with levels of the concurrent BFS
  // queries — and every answer must still match its serial reference.
  QueryEngine engine{storage_, topology_, pool_, EngineConfig{}};
  const QueryRef cc = engine.submit_analytics(QueryKind::Components);
  const QueryRef pr = engine.submit_analytics(QueryKind::PageRank);
  const QueryRef tc = engine.submit_analytics(QueryKind::Triangles);
  std::vector<QueryRef> traversals;
  for (Vertex root = 0; root < 8; ++root)
    traversals.push_back(engine.submit(root));

  for (const QueryRef& query : traversals) {
    query->wait();
    ASSERT_EQ(query->state(), QueryState::Done) << query->result().error;
    expect_matches_reference(query->result());
  }

  cc->wait();
  ASSERT_EQ(cc->state(), QueryState::Done) << cc->result().error;
  EXPECT_EQ(cc->result().kind, QueryKind::Components);
  const std::vector<Vertex> labels = testref::reference_components(full_);
  ASSERT_EQ(cc->result().labels, labels);
  std::vector<bool> seen(labels.size(), false);
  std::int64_t distinct = 0;
  for (const Vertex label : labels)
    if (!seen[static_cast<std::size_t>(label)]) {
      seen[static_cast<std::size_t>(label)] = true;
      ++distinct;
    }
  EXPECT_EQ(cc->result().component_count, distinct);
  EXPECT_GT(cc->result().supersteps, 0);

  pr->wait();
  ASSERT_EQ(pr->state(), QueryState::Done) << pr->result().error;
  EXPECT_EQ(pr->result().kind, QueryKind::PageRank);
  ASSERT_EQ(pr->result().ranks.size(), labels.size());
  const std::vector<double> expected_ranks = testref::reference_pagerank(
      full_, EngineConfig{}.pagerank.damping, pr->result().supersteps);
  for (std::size_t v = 0; v < expected_ranks.size(); ++v)
    ASSERT_NEAR(pr->result().ranks[v], expected_ranks[v], 1e-9) << "v=" << v;

  tc->wait();
  ASSERT_EQ(tc->state(), QueryState::Done) << tc->result().error;
  EXPECT_EQ(tc->result().kind, QueryKind::Triangles);
  EXPECT_EQ(tc->result().triangles, testref::reference_triangles(full_));

  // The done counter is bumped after waiters wake; give it a beat.
  EngineStats stats = engine.stats();
  for (int spin = 0; spin < 1000 && stats.done != 11u; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = engine.stats();
  }
  EXPECT_EQ(stats.analytics_queries, 3u);
  EXPECT_EQ(stats.submitted, 11u);
  EXPECT_EQ(stats.done, 11u);
}

TEST_F(ServeEngineTest, BoundedQueueRejects) {
  EngineConfig config;
  config.autostart = false;  // queue can only fill while nothing drains it
  config.queue_capacity = 2;
  QueryEngine engine{storage_, topology_, pool_, config};
  const QueryRef a = engine.submit(0);
  const QueryRef b = engine.submit(1);
  const QueryRef c = engine.submit(2);
  EXPECT_EQ(c->state(), QueryState::Rejected);
  EXPECT_TRUE(c->finished());
  EXPECT_FALSE(a->finished());
  engine.start();
  engine.drain();
  EXPECT_EQ(a->state(), QueryState::Done);
  EXPECT_EQ(b->state(), QueryState::Done);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.done, 2u);
}

TEST_F(ServeEngineTest, DeadlineExpiresWhileQueued) {
  EngineConfig config;
  config.autostart = false;
  QueryEngine engine{storage_, topology_, pool_, config};
  QueryOptions options;
  options.deadline_ms = 0.01;  // expires long before start()
  const QueryRef query = engine.submit(0, options);
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  engine.start();
  query->wait();
  EXPECT_EQ(query->state(), QueryState::DeadlineExpired);
  EXPECT_TRUE(query->result().level.empty());  // never ran a level
  EXPECT_GT(query->result().queue_wait_ms, 0.0);
}

TEST_F(ServeEngineTest, CancelBeforeStart) {
  EngineConfig config;
  config.autostart = false;
  QueryEngine engine{storage_, topology_, pool_, config};
  const QueryRef query = engine.submit(0);
  query->cancel();
  engine.start();
  query->wait();
  EXPECT_EQ(query->state(), QueryState::Cancelled);
}

TEST_F(ServeEngineTest, MaxLevelsTruncatesBothPaths) {
  QueryEngine engine{storage_, topology_, pool_, EngineConfig{}};
  QueryOptions khop;
  khop.max_levels = 2;
  QueryOptions khop_session = khop;
  khop_session.batchable = false;
  const QueryRef batched = engine.submit(0, khop);
  const QueryRef solo = engine.submit(0, khop_session);
  batched->wait();
  solo->wait();
  ASSERT_EQ(batched->state(), QueryState::Done);
  ASSERT_EQ(solo->state(), QueryState::Done);
  const ReferenceBfsResult ref = reference_bfs(full_, 0);
  for (const QueryRef& query : {batched, solo}) {
    const QueryResult& result = query->result();
    EXPECT_LE(result.depth, 2);
    for (std::size_t v = 0; v < result.level.size(); ++v) {
      if (ref.level[v] >= 0 && ref.level[v] <= 2)
        EXPECT_EQ(result.level[v], ref.level[v]) << "v=" << v;
      else
        EXPECT_EQ(result.level[v], -1) << "v=" << v;
    }
  }
}

TEST_F(ServeEngineTest, ShutdownRejectsLateSubmits) {
  QueryEngine engine{storage_, topology_, pool_, EngineConfig{}};
  engine.shutdown();
  const QueryRef late = engine.submit(0);
  EXPECT_EQ(late->state(), QueryState::Rejected);
}

// Fault containment: with the forward graph on a faulty device and a zero
// error budget, session queries degrade to the DRAM bottom-up fallback —
// every query still completes with reference-exact levels, and queries
// untouched by faults report no degradation.
TEST_F(ServeEngineTest, FaultsAreContainedPerQuery) {
  testutil::ScopedTestDir scratch{"serve_fault"};
  const std::string& dir = scratch.path();
  DeviceProfile profile = DeviceProfile::by_name("pcie_flash");
  profile.time_scale = 0.001;
  auto device = std::make_shared<NvmDevice>(profile);
  ExternalForwardGraph external{forward_, device, dir};
  FaultPlan plan;
  plan.seed = 99;
  plan.read_error_rate = 0.02;
  device->set_fault_plan(plan);

  GraphStorage storage;
  storage.forward = &external;
  storage.backward = &backward_;
  QueryEngine engine{storage, topology_, pool_, EngineConfig{}};
  QueryOptions options;
  options.batchable = false;  // sessions: the NVM-touching path
  std::vector<QueryRef> queries;
  for (Vertex root = 0; root < 8; ++root)
    queries.push_back(engine.submit(root, options));
  int degraded = 0;
  for (const QueryRef& query : queries) {
    query->wait();
    ASSERT_EQ(query->state(), QueryState::Done) << query->result().error;
    expect_matches_reference(query->result());
    if (query->result().degraded) ++degraded;
  }
  // The plan's rate makes some but not all queries hit a fault; either way
  // no fault may spread beyond its own query.
  EXPECT_EQ(engine.stats().failed, 0u);
  engine.shutdown();
}

// Goodput accounting: qps counts only Done queries. A regression divided
// (issued - rejected) by wall time, which reported healthy "throughput"
// for a run where every query missed its deadline; that number now lives
// in offered_qps instead.
TEST_F(ServeEngineTest, LoadGenQpsIsGoodputNotOfferedLoad) {
  QueryEngine engine{storage_, topology_, pool_, EngineConfig{}};
  LoadGenConfig load;
  load.clients = 2;
  load.queries_per_client = 8;
  load.options.deadline_ms = 1e-4;  // expires before any level can run
  const LoadGenReport report = run_load(engine, edges_.vertex_count(), load);

  EXPECT_EQ(report.issued, 16u);
  EXPECT_GT(report.deadline_expired, 0u);
  ASSERT_GT(report.seconds, 0.0);
  // qps reconstructs from Done alone; offered_qps from admitted load.
  EXPECT_NEAR(report.qps, static_cast<double>(report.done) / report.seconds,
              1e-9);
  EXPECT_NEAR(report.offered_qps,
              static_cast<double>(report.issued - report.rejected) /
                  report.seconds,
              1e-9);
  // With expirations in the mix the two must split apart — the old
  // formula made them identical.
  EXPECT_LT(report.qps, report.offered_qps);
}

TEST_F(ServeEngineTest, LoadGenHealthyRunQpsMatchesOfferedLoad) {
  QueryEngine engine{storage_, topology_, pool_, EngineConfig{}};
  LoadGenConfig load;
  load.clients = 2;
  load.queries_per_client = 4;  // no deadline: every query completes
  const LoadGenReport report = run_load(engine, edges_.vertex_count(), load);
  EXPECT_EQ(report.done, report.issued);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_NEAR(report.qps, report.offered_qps, 1e-9);
  EXPECT_GT(report.qps, 0.0);
}

// Determinism: replaying the same seeded trace through a deferred-start
// engine yields byte-identical per-query results and identical
// deterministic engine stats.
TEST_F(ServeEngineTest, SeededTraceReplaysIdentically) {
  const std::vector<Vertex> trace =
      generate_trace(123, 40, edges_.vertex_count());

  struct Replay {
    std::vector<std::vector<std::int32_t>> level;
    std::vector<std::vector<Vertex>> parent;
    std::vector<std::int64_t> visited;
    std::vector<std::int32_t> depth;
    std::vector<QueryState> state;
    EngineStats stats;
  };
  const auto run_once = [&] {
    EngineConfig config;
    config.autostart = false;  // whole trace queued -> batch formation is
                               // a pure function of admission order
    QueryEngine engine{storage_, topology_, pool_, config};
    std::vector<QueryRef> queries;
    for (const Vertex root : trace) queries.push_back(engine.submit(root));
    engine.start();
    engine.drain();
    Replay replay;
    for (const QueryRef& query : queries) {
      const QueryResult& result = query->result();
      replay.level.push_back(result.level);
      replay.parent.push_back(result.parent);
      replay.visited.push_back(result.visited);
      replay.depth.push_back(result.depth);
      replay.state.push_back(result.state);
    }
    replay.stats = engine.stats();
    return replay;
  };

  const Replay first = run_once();
  const Replay second = run_once();
  EXPECT_EQ(first.level, second.level);
  EXPECT_EQ(first.parent, second.parent);
  EXPECT_EQ(first.visited, second.visited);
  EXPECT_EQ(first.depth, second.depth);
  EXPECT_EQ(first.state, second.state);
  EXPECT_EQ(first.stats.submitted, second.stats.submitted);
  EXPECT_EQ(first.stats.done, second.stats.done);
  EXPECT_EQ(first.stats.batches, second.stats.batches);
  EXPECT_EQ(first.stats.batched_queries, second.stats.batched_queries);
  EXPECT_EQ(first.stats.session_queries, second.stats.session_queries);
}

TEST(BatchPlannerTest, PacksFifoAndDedupsRoots) {
  std::deque<QueryRef> queued;
  const auto enqueue = [&](Vertex root) {
    queued.push_back(
        std::make_shared<Query>(queued.size() + 1, root, QueryOptions{}));
  };
  enqueue(5);
  enqueue(9);
  enqueue(5);  // rider on lane 0
  enqueue(2);
  const BatchPlan plan = plan_batch(queued, 8);
  EXPECT_TRUE(queued.empty());
  ASSERT_EQ(plan.width(), 3u);
  EXPECT_EQ(plan.roots, (std::vector<Vertex>{5, 9, 2}));
  ASSERT_EQ(plan.queries.size(), 4u);
  EXPECT_EQ(plan.lane_of, (std::vector<std::size_t>{0, 1, 0, 2}));
}

TEST(BatchPlannerTest, LaneCapStopsInOrder) {
  std::deque<QueryRef> queued;
  for (Vertex root = 0; root < 6; ++root)
    queued.push_back(
        std::make_shared<Query>(root + 1, root, QueryOptions{}));
  const BatchPlan plan = plan_batch(queued, 4);
  EXPECT_EQ(plan.width(), 4u);
  EXPECT_EQ(plan.queries.size(), 4u);
  ASSERT_EQ(queued.size(), 2u);  // FIFO remainder, order preserved
  EXPECT_EQ(queued[0]->root(), 4);
  EXPECT_EQ(queued[1]->root(), 5);
}

TEST(BatchPlannerTest, QueryCapBoundsRiders) {
  // Regression: make_batch once planned with no rider cap, so a skewed
  // root distribution let one batch swallow an unbounded queue.
  std::deque<QueryRef> queued;
  for (std::size_t i = 0; i < 10; ++i)
    queued.push_back(std::make_shared<Query>(i + 1, 7, QueryOptions{}));
  const BatchPlan plan = plan_batch(queued, 8, 4);
  EXPECT_EQ(plan.width(), 1u);
  EXPECT_EQ(plan.queries.size(), 4u);
  EXPECT_EQ(queued.size(), 6u);  // the rest waits for the next batch
}

TEST(BatchPlannerTest, EmptyQueueYieldsEmptyPlan) {
  std::deque<QueryRef> queued;
  EXPECT_TRUE(plan_batch(queued, 64).empty());
}

// Satellite regression: a single-root flood must be split across batches
// by max_batch_queries instead of riding one batch unboundedly.
TEST_F(ServeEngineTest, SingleRootFloodRespectsRiderCap) {
  EngineConfig config;
  config.autostart = false;  // whole flood queued before any planning
  config.queue_capacity = 512;
  config.max_batch_queries = 50;
  QueryEngine engine{storage_, topology_, pool_, config};
  std::vector<QueryRef> queries;
  for (int i = 0; i < 300; ++i) queries.push_back(engine.submit(11));
  engine.start();
  engine.drain();
  for (const QueryRef& query : queries) {
    ASSERT_EQ(query->state(), QueryState::Done) << query->result().error;
    expect_matches_reference(query->result());
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batched_queries, 300u);
  // 300 riders at <= 50 per batch = at least 6 batches.
  EXPECT_GE(stats.batches, 6u);
  engine.shutdown();
}

TEST_F(ServeEngineTest, TenantQuotaRejectsImmediately) {
  EngineConfig config;
  config.autostart = false;  // nothing drains: in-flight stays up
  config.tenant_quota = 2;
  QueryEngine engine{storage_, topology_, pool_, config};
  QueryOptions t0;
  t0.tenant = 0;
  QueryOptions t1;
  t1.tenant = 1;
  const QueryRef a = engine.submit(0, t0);
  const QueryRef b = engine.submit(1, t0);
  const QueryRef c = engine.submit(2, t0);  // tenant 0 over quota
  const QueryRef d = engine.submit(3, t1);  // tenant 1 unaffected
  EXPECT_EQ(c->state(), QueryState::Rejected);
  EXPECT_EQ(c->result().error, "tenant quota exceeded");
  EXPECT_FALSE(a->finished());
  EXPECT_FALSE(b->finished());
  EXPECT_FALSE(d->finished());
  EXPECT_EQ(engine.stats().quota_rejected, 1u);
  engine.start();
  engine.drain();
  // Quota released at finalize: tenant 0 can submit again.
  const QueryRef e = engine.submit(4, t0);
  e->wait();
  EXPECT_EQ(e->state(), QueryState::Done);
}

TEST_F(ServeEngineTest, HighReserveKeepsHeadroomForHighLane) {
  EngineConfig config;
  config.autostart = false;
  config.queue_capacity = 4;
  config.high_reserve = 2;  // normal lane saturates at 2
  QueryEngine engine{storage_, topology_, pool_, config};
  QueryOptions high;
  high.priority = Priority::High;
  const QueryRef n1 = engine.submit(0);
  const QueryRef n2 = engine.submit(1);
  const QueryRef n3 = engine.submit(2);  // normal beyond capacity - reserve
  EXPECT_EQ(n3->state(), QueryState::Rejected);
  const QueryRef h1 = engine.submit(3, high);
  const QueryRef h2 = engine.submit(4, high);
  EXPECT_FALSE(h1->finished());  // reserved headroom admits the high lane
  EXPECT_FALSE(h2->finished());
  const QueryRef h3 = engine.submit(5, high);  // full is full, even for high
  EXPECT_EQ(h3->state(), QueryState::Rejected);
  engine.start();
  engine.drain();
  for (const QueryRef& q : {n1, n2, h1, h2}) EXPECT_EQ(q->state(), QueryState::Done);
}

// Cache hits must be byte-identical to the executed result (the
// differential check the CI serving job relies on), never touch the
// dispatcher, and respect the options key and generation invalidation.
TEST_F(ServeEngineTest, ResultCacheServesExactHitsAndInvalidates) {
  EngineConfig config;
  config.cache_bytes = 4 << 20;
  QueryEngine engine{storage_, topology_, pool_, config};
  const Vertex root = 6;
  const QueryRef cold = engine.submit(root);
  cold->wait();
  ASSERT_EQ(cold->state(), QueryState::Done);
  EXPECT_FALSE(cold->result().cache_hit);

  const QueryRef hot = engine.submit(root);
  hot->wait();
  ASSERT_EQ(hot->state(), QueryState::Done);
  EXPECT_TRUE(hot->result().cache_hit);
  // Differential: the cached answer equals the executed one, which equals
  // the serial reference.
  EXPECT_EQ(hot->result().level, cold->result().level);
  EXPECT_EQ(hot->result().visited, cold->result().visited);
  expect_matches_reference(hot->result());
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 1u);

  // Options-mismatch bypass: a k-hop query must not be served the full
  // traversal.
  QueryOptions khop;
  khop.max_levels = 1;
  const QueryRef capped = engine.submit(root, khop);
  capped->wait();
  ASSERT_EQ(capped->state(), QueryState::Done);
  EXPECT_FALSE(capped->result().cache_hit);
  for (const std::int32_t l : capped->result().level) EXPECT_LE(l, 1);

  // Generation bump: the invalidation hook empties the cache.
  engine.invalidate_cache();
  const QueryRef after = engine.submit(root);
  after->wait();
  ASSERT_EQ(after->state(), QueryState::Done);
  EXPECT_FALSE(after->result().cache_hit);
  EXPECT_EQ(engine.cache_stats().invalidations, 1u);
}

TEST_F(ServeEngineTest, LoadGenRetriesRejectionsWithBackoff) {
  // A 1-deep queue with a deferred dispatcher start forces rejections;
  // retries must be counted separately and eventually succeed once the
  // dispatcher drains the queue.
  EngineConfig config;
  config.queue_capacity = 1;
  QueryEngine engine{storage_, topology_, pool_, config};
  LoadGenConfig load;
  load.clients = 4;
  load.queries_per_client = 8;
  load.max_retries = 50;
  load.retry_backoff_ms = 0.1;
  const LoadGenReport report = run_load(engine, edges_.vertex_count(), load);
  EXPECT_EQ(report.issued, 32u);
  // Retried-then-accepted queries are goodput, not inflation: every
  // logical outcome sums to issued regardless of how many retries ran.
  EXPECT_EQ(report.done + report.failed + report.cancelled +
                report.deadline_expired + report.rejected,
            report.issued);
  EXPECT_GT(report.done, 0u);
}

}  // namespace
}  // namespace sembfs::serve
