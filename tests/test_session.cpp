// The level-stepped BFS: a BfsProgram driven one superstep at a time by
// engine::ProgramSession — the loop behind HybridBfsRunner::run(), the
// serving engine's sessions and k-hop queries.
#include "engine/bfs_program.hpp"

#include <gtest/gtest.h>

#include "bfs/reference_bfs.hpp"
#include "engine/program_session.hpp"
#include "graph_fixtures.hpp"
#include "obs/trace.hpp"

namespace sembfs {
namespace {

using engine::BfsProgram;
using engine::ProgramSession;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = generate_kronecker(fixtures::small_kronecker(10, 8, 501), pool_);
    partition_ = VertexPartition{edges_.vertex_count(), 4};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    full_ = build_csr(edges_, CsrBuildOptions{}, pool_);
    storage_.forward = &forward_;
    storage_.backward = &backward_;
    root_ = 0;
    while (full_.degree(root_) == 0) ++root_;
  }

  ThreadPool pool_{4};
  NumaTopology topology_{4, 1};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  BackwardGraph backward_;
  Csr full_;
  GraphStorage storage_;
  Vertex root_ = 0;
};

TEST_F(SessionTest, SteppedToCompletionMatchesRunner) {
  BfsStatus status{edges_.vertex_count()};
  BfsProgram program{status, root_};
  ProgramSession session{program, storage_, topology_, pool_, BfsConfig{}};
  int steps = 0;
  while (session.step()) ++steps;
  EXPECT_TRUE(session.done());
  const BfsResult stepped = program.snapshot_result(session);

  HybridBfsRunner runner{storage_, topology_, pool_};
  const BfsResult direct = runner.run(root_, BfsConfig{});
  EXPECT_EQ(stepped.level, direct.level);
  EXPECT_EQ(stepped.visited, direct.visited);
  EXPECT_EQ(stepped.depth, direct.depth);
  EXPECT_EQ(stepped.teps_edge_count, direct.teps_edge_count);
  EXPECT_EQ(steps + 1, static_cast<int>(stepped.levels.size()) + 0)
      << "last step returns false but still executed a level";
}

TEST_F(SessionTest, KHopTruncationYieldsExactlyKHopNeighborhood) {
  constexpr std::int32_t kHops = 2;
  BfsStatus status{edges_.vertex_count()};
  BfsProgram program{status, root_};
  ProgramSession session{program, storage_, topology_, pool_, BfsConfig{}};
  for (std::int32_t i = 0; i < kHops && session.step(); ++i) {
  }
  const BfsResult partial = program.snapshot_result(session);

  const ReferenceBfsResult ref = reference_bfs(full_, root_);
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    if (ref.level[v] >= 0 && ref.level[v] <= kHops)
      ASSERT_EQ(partial.level[v], ref.level[v]) << "v=" << v;
    else
      ASSERT_EQ(partial.level[v], -1) << "v=" << v;
  }
}

TEST_F(SessionTest, NextLevelAndDirectionObservable) {
  BfsStatus status{edges_.vertex_count()};
  BfsConfig config;
  config.policy.alpha = 1e9;  // switch to bottom-up immediately
  config.policy.beta = 1e-9;
  // Start from the hub so level 1 certainly grows the frontier.
  Vertex hub = root_;
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    if (full_.degree(v) > full_.degree(hub)) hub = v;
  BfsProgram program{status, hub};
  ProgramSession session{program, storage_, topology_, pool_, config};
  EXPECT_EQ(session.next_superstep(), 1);
  EXPECT_EQ(session.next_direction(), Direction::TopDown);
  ASSERT_TRUE(session.step());
  EXPECT_EQ(session.next_superstep(), 2);
  EXPECT_EQ(session.next_direction(), Direction::BottomUp);
}

TEST_F(SessionTest, StepAfterDoneIsNoop) {
  BfsStatus status{8};
  const EdgeList small = fixtures::small_graph();
  const VertexPartition partition{8, 2};
  const ForwardGraph fg =
      ForwardGraph::build(small, partition, CsrBuildOptions{}, pool_);
  const BackwardGraph bg =
      BackwardGraph::build(small, partition, CsrBuildOptions{}, pool_);
  GraphStorage storage;
  storage.forward = &fg;
  storage.backward = &bg;
  BfsProgram program{status, 7};  // isolated
  ProgramSession session{program, storage, topology_, pool_, BfsConfig{}};
  EXPECT_FALSE(session.step());  // level 1 finds nothing
  EXPECT_TRUE(session.done());
  const std::size_t levels_before = session.supersteps().size();
  EXPECT_FALSE(session.step());
  EXPECT_EQ(session.supersteps().size(), levels_before);
}

TEST_F(SessionTest, PerLevelStatsAccumulateIncrementally) {
  BfsStatus status{edges_.vertex_count()};
  BfsProgram program{status, root_};
  ProgramSession session{program, storage_, topology_, pool_, BfsConfig{}};
  std::size_t expected = 0;
  while (session.step()) {
    ++expected;
    EXPECT_EQ(session.supersteps().size(), expected);
  }
}

TEST_F(SessionTest, TraceSpansMatchLevelStats) {
  obs::TraceLog trace;
  BfsStatus status{edges_.vertex_count()};
  BfsConfig config;
  config.trace = &trace;
  BfsProgram program{status, root_};
  ProgramSession session{program, storage_, topology_, pool_, config};
  std::vector<Direction> decisions;
  while (true) {
    const bool more = session.step();
    decisions.push_back(session.next_direction());
    if (!more) break;
  }
  const std::vector<LevelStats>& stats = session.supersteps();
  const std::vector<obs::TraceSpan> spans = trace.spans();
  ASSERT_EQ(spans.size(), stats.size());
  double prev_start = -1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::TraceSpan& span = spans[i];
    const LevelStats& level = stats[i];
    EXPECT_EQ(span.run, 0);
    EXPECT_EQ(span.root, root_);
    EXPECT_EQ(span.level, level.level);
    EXPECT_EQ(span.direction, level.direction);
    EXPECT_EQ(span.stats.frontier_vertices, level.frontier_vertices);
    EXPECT_EQ(span.stats.claimed_vertices, level.claimed_vertices);
    EXPECT_EQ(span.stats.scanned_edges, level.scanned_edges);
    EXPECT_EQ(span.stats.nvm_requests, level.nvm_requests);
    // The policy saw this level's outcome: its input frontier sizes are
    // this level's before/after, and its decision is the direction the
    // session reported after the step.
    EXPECT_EQ(span.policy_input.current, level.direction);
    EXPECT_EQ(span.policy_input.prev_frontier, level.frontier_vertices);
    EXPECT_TRUE(span.policy_evaluated);  // hybrid mode
    EXPECT_EQ(span.decision, decisions[i]);
    EXPECT_GE(span.start_seconds, prev_start);
    EXPECT_GE(span.duration_seconds, 0.0);
    prev_start = span.start_seconds;
  }
}

TEST_F(SessionTest, TraceAssignsRunIdsPerSession) {
  obs::TraceLog trace;
  BfsConfig config;
  config.trace = &trace;
  for (int run = 0; run < 2; ++run) {
    BfsStatus status{edges_.vertex_count()};
    BfsProgram program{status, root_};
    ProgramSession session{program, storage_, topology_, pool_, config};
    while (session.step()) {
    }
  }
  const std::vector<obs::TraceSpan> spans = trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().run, 0);
  EXPECT_EQ(spans.back().run, 1);
}

TEST_F(SessionTest, ForcedModeRecordsUnevaluatedPolicy) {
  obs::TraceLog trace;
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;
  config.trace = &trace;
  BfsStatus status{edges_.vertex_count()};
  BfsProgram program{status, root_};
  ProgramSession session{program, storage_, topology_, pool_, config};
  while (session.step()) {
  }
  for (const obs::TraceSpan& span : trace.spans()) {
    EXPECT_FALSE(span.policy_evaluated);
    EXPECT_EQ(span.direction, Direction::TopDown);
    EXPECT_EQ(span.decision, Direction::TopDown);
  }
}

TEST_F(SessionTest, SnapshotMidSearchCountsOnlyElapsedWork) {
  BfsStatus status{edges_.vertex_count()};
  BfsProgram program{status, root_};
  ProgramSession session{program, storage_, topology_, pool_, BfsConfig{}};
  session.step();
  const BfsResult after_one = program.snapshot_result(session);
  EXPECT_EQ(after_one.depth, 1);
  EXPECT_EQ(after_one.levels.size(), 1u);
  while (session.step()) {
  }
  const BfsResult full = program.snapshot_result(session);
  EXPECT_GT(full.visited, after_one.visited);
  EXPECT_GE(full.seconds, after_one.seconds);
}

TEST_F(SessionTest, RunnerResultsKeepTheirArraysAcrossRuns) {
  // Each finished traversal hands the status's arrays to its result, and
  // the next run re-creates them: the first result is not aliased.
  Vertex other = root_ + 1;
  while (full_.degree(other) == 0) ++other;
  HybridBfsRunner runner{storage_, topology_, pool_};
  const BfsResult first = runner.run(root_, BfsConfig{});
  const std::vector<Vertex> first_parent = first.parent;
  const std::vector<std::int32_t> first_level = first.level;
  const BfsResult second = runner.run(other, BfsConfig{});
  EXPECT_EQ(first.parent, first_parent);
  EXPECT_EQ(first.level, first_level);
  EXPECT_EQ(first.level, reference_bfs(full_, root_).level);
  EXPECT_EQ(second.level, reference_bfs(full_, other).level);
  EXPECT_EQ(second.parent[static_cast<std::size_t>(other)], other);
}

TEST_F(SessionTest, MidSearchSnapshotIsACopyTheSessionLeavesAlone) {
  BfsStatus status{edges_.vertex_count()};
  BfsProgram program{status, root_};
  ProgramSession session{program, storage_, topology_, pool_, BfsConfig{}};
  ASSERT_TRUE(session.step());
  const BfsResult mid = program.snapshot_result(session);
  const std::vector<Vertex> mid_parent = mid.parent;
  const std::vector<std::int32_t> mid_level = mid.level;
  while (session.step()) {
  }
  EXPECT_EQ(mid.parent, mid_parent);
  EXPECT_EQ(mid.level, mid_level);
  const BfsResult done = program.snapshot_result(session);
  EXPECT_FALSE(status.holds_tree());

  HybridBfsRunner runner{storage_, topology_, pool_};
  const BfsResult direct = runner.run(root_, BfsConfig{});
  EXPECT_EQ(done.parent, direct.parent);
  EXPECT_EQ(done.level, direct.level);
  EXPECT_EQ(done.visited, direct.visited);
  EXPECT_EQ(done.depth, direct.depth);
  EXPECT_EQ(done.teps_edge_count, direct.teps_edge_count);
}

TEST_F(SessionTest, SecondSnapshotAfterTheHandOffFailsAPrecondition) {
  // The session's pool threads are alive: re-run the test in a fresh
  // process rather than forking this one.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  BfsStatus status{edges_.vertex_count()};
  BfsProgram program{status, root_};
  ProgramSession session{program, storage_, topology_, pool_, BfsConfig{}};
  session.run();
  const BfsResult result = program.snapshot_result(session);
  EXPECT_EQ(result.level, reference_bfs(full_, root_).level);
  EXPECT_DEATH((void)program.snapshot_result(session), "holds_tree");
}

}  // namespace
}  // namespace sembfs
