// Hybrid BFS correctness on the non-power-law workload: uniform random
// graphs exercise different frontier dynamics (no hubs, near-constant
// degree, late switch points), so the level-equivalence property gets its
// own sweep here.
#include <gtest/gtest.h>

#include "bfs/reference_bfs.hpp"
#include "engine/bfs_program.hpp"
#include "graph/uniform.hpp"

namespace sembfs {
namespace {

class UniformBfsSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, BfsMode>> {};

TEST_P(UniformBfsSweep, LevelsMatchReference) {
  const auto [seed, mode] = GetParam();
  ThreadPool pool{4};
  UniformParams params;
  params.scale = 9;
  params.edge_factor = 4;  // sparse: leaves multiple components
  params.seed = seed;
  const EdgeList edges = generate_uniform(params, pool);
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
  config.mode = mode;
  config.policy.alpha = 1e3;
  config.policy.beta = 1e4;

  // Several roots per graph, including ones deep in small components.
  int tested = 0;
  for (Vertex root = 0; root < edges.vertex_count() && tested < 5; ++root) {
    if (full.degree(root) == 0) continue;
    ++tested;
    const BfsResult result = runner.run(root, config);
    const ReferenceBfsResult ref = reference_bfs(full, root);
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v])
          << "seed=" << seed << " root=" << root << " v=" << v;
  }
  EXPECT_EQ(tested, 5);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, UniformBfsSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u),
                       ::testing::Values(BfsMode::Hybrid,
                                         BfsMode::TopDownOnly,
                                         BfsMode::BottomUpOnly)));

}  // namespace
}  // namespace sembfs
