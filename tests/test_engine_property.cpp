// Randomized and structured small-graph property tests for the vertex-
// program engine. The sweep in test_differential_sweep.cpp hammers two
// generator families at scale 10; this file goes the other way — tiny
// adversarial topologies (isolated vertices, self-loops, duplicate edges,
// disconnected components, stars, paths, complete graphs) and a stream of
// seeded random graphs, every one checked against the serial references.
// On any failure the SCOPED_TRACE prints the seed/topology to rerun with.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "analytics_references.hpp"
#include "bfs/reference_bfs.hpp"
#include "engine/bfs_program.hpp"
#include "engine/components_program.hpp"
#include "engine/pagerank_program.hpp"
#include "engine/program_session.hpp"
#include "engine/triangle_program.hpp"
#include "graph/hybrid_csr.hpp"
#include "graph_fixtures.hpp"
#include "nvm/device_profile.hpp"
#include "nvm/nvm_device.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class EnginePropertyTest : public ::testing::Test {
 protected:
  ThreadPool pool_{4};
};

/// Runs all four programs over DRAM storage built from `edges` and
/// asserts each against its serial reference. Callers wrap the call in a
/// SCOPED_TRACE naming the topology or seed.
void check_engine_matches_references(const EdgeList& edges,
                                     ThreadPool& pool) {
  const Vertex n = edges.vertex_count();
  ASSERT_GE(n, 1);
  const std::size_t nodes = n >= 2 ? 2 : 1;
  const VertexPartition partition{n, nodes};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  const NumaTopology topology{nodes, pool.size() / nodes};
  const BfsConfig config;

  // BFS from the corners: vertex 0, the last vertex, and the hub — the
  // set covers isolated roots, leaves, and the densest neighborhood.
  Vertex hub = 0;
  for (Vertex v = 1; v < n; ++v)
    if (full.degree(v) > full.degree(hub)) hub = v;
  BfsStatus status{n};
  for (const Vertex root : {Vertex{0}, n - 1, hub}) {
    engine::BfsProgram program{status, root};
    engine::ProgramSession session{program, storage, topology, pool, config};
    session.run();
    const ReferenceBfsResult ref = reference_bfs(full, root);
    const std::vector<std::int32_t>& levels = status.levels();
    for (Vertex v = 0; v < n; ++v)
      ASSERT_EQ(levels[v], ref.level[v]) << "bfs root " << root << " v " << v;
  }

  {
    engine::ComponentsProgram program;
    engine::ProgramSession session{program, storage, topology, pool, config};
    session.run();
    const std::vector<Vertex> expected = testref::reference_components(full);
    for (Vertex v = 0; v < n; ++v)
      ASSERT_EQ(program.label(v), expected[v]) << "components v " << v;
  }

  {
    engine::PageRankProgram program;
    engine::ProgramSession session{program, storage, topology, pool, config};
    session.run();
    ASSERT_GT(program.iterations(), 0);
    const std::vector<double> expected = testref::reference_pagerank(
        full, program.options().damping, program.iterations());
    double sum = 0.0;
    for (Vertex v = 0; v < n; ++v) {
      ASSERT_NEAR(program.ranks()[v], expected[v], 1e-9) << "pagerank v "
                                                         << v;
      sum += program.ranks()[v];
    }
    ASSERT_NEAR(sum, 1.0, 1e-6);
  }

  {
    engine::TriangleProgram program;
    engine::ProgramSession session{program, storage, topology, pool, config};
    session.run();
    ASSERT_EQ(program.triangles(), testref::reference_triangles(full));
  }
}

TEST_F(EnginePropertyTest, SingleVertexNoEdges) {
  SCOPED_TRACE("topology: single vertex, no edges");
  EdgeList edges{1};
  check_engine_matches_references(edges, pool_);
}

TEST_F(EnginePropertyTest, AllIsolatedVertices) {
  SCOPED_TRACE("topology: 8 isolated vertices");
  EdgeList edges{8};
  check_engine_matches_references(edges, pool_);
}

TEST_F(EnginePropertyTest, StarGraph) {
  SCOPED_TRACE("topology: star, center 0, 32 leaves");
  EdgeList edges{33};
  for (Vertex leaf = 1; leaf < 33; ++leaf) edges.add(0, leaf);
  check_engine_matches_references(edges, pool_);
}

TEST_F(EnginePropertyTest, PathGraph) {
  SCOPED_TRACE("topology: path of 32 vertices");
  EdgeList edges{32};
  for (Vertex v = 0; v + 1 < 32; ++v) edges.add(v, v + 1);
  check_engine_matches_references(edges, pool_);
}

TEST_F(EnginePropertyTest, CompleteGraph) {
  SCOPED_TRACE("topology: K16");
  EdgeList edges{16};
  for (Vertex u = 0; u < 16; ++u)
    for (Vertex v = u + 1; v < 16; ++v) edges.add(u, v);
  check_engine_matches_references(edges, pool_);
}

TEST_F(EnginePropertyTest, DisconnectedComponentsWithIsolated) {
  SCOPED_TRACE("topology: K6 on [0,6), K6 on [8,14), isolated 6,7,14,15");
  EdgeList edges{16};
  for (Vertex u = 0; u < 6; ++u)
    for (Vertex v = u + 1; v < 6; ++v) edges.add(u, v);
  for (Vertex u = 8; u < 14; ++u)
    for (Vertex v = u + 1; v < 14; ++v) edges.add(u, v);
  check_engine_matches_references(edges, pool_);
}

TEST_F(EnginePropertyTest, SelfLoopsAndDuplicateEdges) {
  SCOPED_TRACE("topology: path with doubled edges and self-loops");
  EdgeList edges{16};
  for (Vertex v = 0; v + 1 < 16; ++v) {
    edges.add(v, v + 1);
    edges.add(v + 1, v);  // reversed duplicate
    if (v % 2 == 0) edges.add(v, v);  // self-loop
  }
  check_engine_matches_references(edges, pool_);
}

TEST_F(EnginePropertyTest, RandomizedSmallGraphs) {
  // Each seed fully determines the graph: vertex count, edge endpoints,
  // injected self-loops and duplicates. The trace names the failing seed.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "failing seed=" << seed);
    std::mt19937_64 rng{seed};
    const Vertex n = 2 + static_cast<Vertex>(rng() % 48);
    EdgeList edges{n};
    const std::size_t m = rng() % static_cast<std::size_t>(3 * n);
    for (std::size_t i = 0; i < m; ++i) {
      const Vertex u = static_cast<Vertex>(rng() % static_cast<std::uint64_t>(n));
      const Vertex v = rng() % 8 == 0
                           ? u  // occasional self-loop
                           : static_cast<Vertex>(
                                 rng() % static_cast<std::uint64_t>(n));
      edges.add(u, v);
      if (rng() % 4 == 0) edges.add(u, v);  // occasional duplicate
    }
    check_engine_matches_references(edges, pool_);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(EnginePropertyTest, PullSuperstepsReadTheMergedView) {
  // BottomUpOnly components and PageRank over a delta, on the DRAM
  // backward graph and on a hybrid one with k = 1. The delta gives two
  // degree-0 vertices edges, so the pull's degree-0 skip must let them
  // through, and tombstones a hub edge. Components equal the reference over
  // the rebuilt edge list; PageRank stays within 1e-9 of it.
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(8, 8, 5), pool_);
  const Vertex n = edges.vertex_count();
  const VertexPartition partition{n, 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);

  std::vector<Vertex> isolated;
  for (Vertex v = 0; v < n && isolated.size() < 2; ++v)
    if (backward.degree_zero().test(static_cast<std::size_t>(v)))
      isolated.push_back(v);
  ASSERT_EQ(isolated.size(), 2U);
  Vertex linked = n - 1;  // the highest vertex with an edge
  while (backward.neighbors(linked).empty()) --linked;
  Vertex cut = 0;  // the first vertex with two in-edges loses its hub edge
  while (backward.neighbors(cut).size() < 2) ++cut;
  const Vertex hub = backward.hubs()[static_cast<std::size_t>(cut)];
  const std::vector<EdgeOp> ops{EdgeOp::insert(isolated[0], linked),
                                EdgeOp::insert(isolated[1], isolated[0]),
                                EdgeOp::remove(cut, hub)};
  const DeltaBuffer delta =
      DeltaBuffer::build(n, ops, [&](Vertex u, Vertex w) -> std::int64_t {
        const std::span<const Vertex> adj = backward.neighbors(u);
        return std::count(adj.begin(), adj.end(), w);
      });

  EdgeList rebuilt{n};
  for (const Edge& e : edges) {
    if ((e.u == cut && e.v == hub) || (e.u == hub && e.v == cut)) continue;
    rebuilt.add(e);
  }
  rebuilt.add(isolated[0], linked);
  rebuilt.add(isolated[1], isolated[0]);
  const Csr full = build_csr(rebuilt, CsrBuildOptions{}, pool_);
  const std::vector<Vertex> expected_labels =
      testref::reference_components(full);

  testutil::ScopedTestDir scratch{"engine_merged_pull"};
  DeviceProfile profile = DeviceProfile::by_name("pcie_flash");
  profile.time_scale = 0.001;
  auto device = std::make_shared<NvmDevice>(profile);
  HybridBackwardGraph hybrid{backward, 1, device, scratch.path()};

  const NumaTopology topology{2, 2};
  BfsConfig config;
  config.mode = BfsMode::BottomUpOnly;
  for (const BackwardStorage side :
       {BackwardStorage{&backward}, BackwardStorage{&hybrid}}) {
    SCOPED_TRACE(side.index() == 1 ? "dram backward" : "hybrid k=1");
    GraphStorage storage;
    storage.forward = &forward;
    storage.backward = side;
    storage.delta = &delta;
    {
      engine::ComponentsProgram program;
      engine::ProgramSession session{program, storage, topology, pool_,
                                     config};
      session.run();
      for (Vertex v = 0; v < n; ++v)
        ASSERT_EQ(program.label(v), expected_labels[v]) << "components v "
                                                        << v;
    }
    {
      engine::PageRankProgram program;
      engine::ProgramSession session{program, storage, topology, pool_,
                                     config};
      session.run();
      ASSERT_GT(program.iterations(), 0);
      const std::vector<double> expected = testref::reference_pagerank(
          full, program.options().damping, program.iterations());
      for (Vertex v = 0; v < n; ++v)
        ASSERT_NEAR(program.ranks()[v], expected[v], 1e-9) << "pagerank v "
                                                           << v;
    }
  }
}

}  // namespace
}  // namespace sembfs
