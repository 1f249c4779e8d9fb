// Randomized and structured small-graph property tests for the vertex-
// program engine. The sweep in test_differential_sweep.cpp hammers two
// generator families at scale 10; this file goes the other way — tiny
// adversarial topologies (isolated vertices, self-loops, duplicate edges,
// disconnected components, stars, paths, complete graphs) and a stream of
// seeded random graphs, every one checked against the serial references.
// On any failure the SCOPED_TRACE prints the seed/topology to rerun with.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "analytics_references.hpp"
#include "bfs/reference_bfs.hpp"
#include "engine/bfs_program.hpp"
#include "engine/components_program.hpp"
#include "engine/pagerank_program.hpp"
#include "engine/program_session.hpp"
#include "engine/triangle_program.hpp"
#include "graph_fixtures.hpp"

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

}  // namespace
}  // namespace sembfs
