// The central correctness property: whatever the mode, policy, thread
// count, or NUMA partitioning, the hybrid BFS must assign exactly the same
// level to every vertex as the serial reference BFS.
#include "engine/bfs_program.hpp"

#include <gtest/gtest.h>

#include "bfs/reference_bfs.hpp"
#include "graph_fixtures.hpp"

namespace sembfs {
namespace {

struct Sweep {
  int scale;
  std::uint64_t seed;
  std::size_t numa_nodes;
  std::size_t threads;
  BfsMode mode;
  double alpha;
  double beta;

  friend std::ostream& operator<<(std::ostream& os, const Sweep& s) {
    return os << "scale" << s.scale << "_seed" << s.seed << "_nodes"
              << s.numa_nodes << "_threads" << s.threads << "_mode"
              << static_cast<int>(s.mode) << "_a" << s.alpha << "_b"
              << s.beta;
  }
};

class HybridBfsSweep : public ::testing::TestWithParam<Sweep> {};

TEST_P(HybridBfsSweep, LevelsMatchReference) {
  const Sweep s = GetParam();
  ThreadPool pool{s.threads};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(s.scale, 8, s.seed), pool);
  const VertexPartition partition{edges.vertex_count(), s.numa_nodes};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  HybridBfsRunner runner{
      storage, NumaTopology::with_total_threads(s.numa_nodes, pool.size()),
      pool};

  BfsConfig config;
  config.mode = s.mode;
  config.policy.alpha = s.alpha;
  config.policy.beta = s.beta;

  // Deterministic root: first vertex with nonzero degree.
  Vertex root = 0;
  while (full.degree(root) == 0) ++root;

  const BfsResult result = runner.run(root, config);
  const ReferenceBfsResult ref = reference_bfs(full, root);

  ASSERT_EQ(result.level.size(), ref.level.size());
  for (Vertex v = 0; v < edges.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]) << "vertex " << v;
  EXPECT_EQ(result.visited, ref.visited);
  EXPECT_EQ(result.teps_edge_count, ref.teps_edge_count);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HybridBfsSweep,
    ::testing::Values(
        // Hybrid with a spread of switching thresholds.
        Sweep{9, 1, 4, 4, BfsMode::Hybrid, 1e2, 1e3},
        Sweep{9, 1, 4, 4, BfsMode::Hybrid, 1e4, 1e5},
        Sweep{9, 1, 4, 4, BfsMode::Hybrid, 1e6, 1e6},
        Sweep{9, 1, 4, 4, BfsMode::Hybrid, 10, 1},
        // Forced single-direction baselines.
        Sweep{9, 1, 4, 4, BfsMode::TopDownOnly, 1e4, 1e5},
        Sweep{9, 1, 4, 4, BfsMode::BottomUpOnly, 1e4, 1e5},
        // Thread-count robustness (including fewer threads than nodes).
        Sweep{9, 2, 4, 1, BfsMode::Hybrid, 1e4, 1e5},
        Sweep{9, 2, 4, 2, BfsMode::Hybrid, 1e4, 1e5},
        Sweep{9, 2, 4, 8, BfsMode::Hybrid, 1e4, 1e5},
        // NUMA-node-count robustness.
        Sweep{9, 3, 1, 4, BfsMode::Hybrid, 1e4, 1e5},
        Sweep{9, 3, 2, 4, BfsMode::Hybrid, 1e4, 1e5},
        Sweep{9, 3, 8, 4, BfsMode::Hybrid, 1e4, 1e5},
        // Different graphs.
        Sweep{10, 5, 4, 4, BfsMode::Hybrid, 1e4, 1e5},
        Sweep{11, 7, 4, 4, BfsMode::Hybrid, 1e3, 1e4},
        Sweep{8, 9, 4, 4, BfsMode::TopDownOnly, 1e4, 1e5},
        Sweep{8, 9, 4, 4, BfsMode::BottomUpOnly, 1e4, 1e5}));

TEST(HybridBfs, EdgeRatioPolicyAlsoMatchesReference) {
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 21), pool);
  const VertexPartition partition{edges.vertex_count(), 4};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool};

  BfsConfig config;
  config.policy.kind = PolicyKind::EdgeRatio;
  config.policy.alpha = 14.0;
  config.policy.beta = 24.0;

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const BfsResult result = runner.run(root, config);
  const ReferenceBfsResult ref = reference_bfs(full, root);
  for (Vertex v = 0; v < edges.vertex_count(); ++v)
    ASSERT_EQ(result.level[v], ref.level[v]);
}

TEST(HybridBfs, LevelStatsAreInternallyConsistent) {
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 33), pool);
  const VertexPartition partition{edges.vertex_count(), 4};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);

  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool};

  BfsConfig config;
  const Vertex root = 1;
  const BfsResult result = runner.run(root, config);

  std::int64_t claimed_total = 1;  // root
  std::int64_t scanned_td = 0;
  std::int64_t scanned_bu = 0;
  for (const LevelStats& ls : result.levels) {
    claimed_total += ls.claimed_vertices;
    (ls.direction == Direction::TopDown ? scanned_td : scanned_bu) +=
        ls.scanned_edges;
    if (ls.frontier_vertices > 0) {
      EXPECT_NEAR(ls.avg_degree,
                  static_cast<double>(ls.scanned_edges) /
                      static_cast<double>(ls.frontier_vertices),
                  1e-9);
    }
  }
  EXPECT_EQ(claimed_total, result.visited);
  EXPECT_EQ(scanned_td, result.scanned_edges_top_down);
  EXPECT_EQ(scanned_bu, result.scanned_edges_bottom_up);
  EXPECT_EQ(result.depth, static_cast<std::int32_t>(result.levels.size()));
  EXPECT_EQ(result.nvm_requests, 0u);  // all-DRAM storage
}

TEST(HybridBfs, FirstLevelIsAlwaysTopDownInHybridMode) {
  ThreadPool pool{2};
  const EdgeList edges = fixtures::star_graph(32);
  const VertexPartition partition{32, 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{2, 1}, pool};
  const BfsResult result = runner.run(0, BfsConfig{});
  ASSERT_FALSE(result.levels.empty());
  EXPECT_EQ(result.levels[0].direction, Direction::TopDown);
}

TEST(HybridBfs, AggressiveAlphaTriggersBottomUp) {
  ThreadPool pool{2};
  const EdgeList edges = fixtures::star_graph(64);
  const VertexPartition partition{64, 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{2, 1}, pool};

  BfsConfig config;
  config.policy.alpha = 1e9;  // threshold n/alpha < 1: switch asap
  config.policy.beta = 1e-9;  // never switch back
  // Start from a leaf: level 1 frontier = {hub}, growing -> switch.
  const BfsResult result = runner.run(1, config);
  bool saw_bottom_up = false;
  for (const LevelStats& ls : result.levels)
    saw_bottom_up = saw_bottom_up || ls.direction == Direction::BottomUp;
  EXPECT_TRUE(saw_bottom_up);
}

TEST(HybridBfs, RunnerReusableAcrossRoots) {
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(9, 8, 17), pool);
  const VertexPartition partition{edges.vertex_count(), 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  HybridBfsRunner runner{storage, NumaTopology{2, 2}, pool};

  for (Vertex root = 0; root < 20; ++root) {
    if (full.degree(root) == 0) continue;
    const BfsResult result = runner.run(root, BfsConfig{});
    const ReferenceBfsResult ref = reference_bfs(full, root);
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v])
          << "root " << root << " vertex " << v;
  }
}

TEST(HybridBfsDeath, RequiresExactlyOneStoragePerSide) {
  ThreadPool pool{2};
  GraphStorage storage;  // nothing set
  EXPECT_DEATH(HybridBfsRunner(storage, NumaTopology{1, 1}, pool),
               "Precondition");
}

}  // namespace
}  // namespace sembfs
