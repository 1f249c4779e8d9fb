#include "graph/relabel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "bfs/hybrid_bfs.hpp"
#include "bfs/reference_bfs.hpp"
#include "graph/degree.hpp"
#include "graph_fixtures.hpp"
#include "util/prng.hpp"

namespace sembfs {
namespace {

TEST(Relabel, IsABijection) {
  ThreadPool pool{2};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(9, 8, 301), pool);
  const Relabeling map = degree_order_relabeling(edges, pool);
  const std::set<Vertex> image(map.new_id.begin(), map.new_id.end());
  EXPECT_EQ(image.size(), map.new_id.size());
  for (Vertex v = 0; v < edges.vertex_count(); ++v) {
    EXPECT_EQ(map.to_new(map.to_old(v)), v);
    EXPECT_EQ(map.to_old(map.to_new(v)), v);
  }
}

TEST(Relabel, NewIdsAreDegreeSorted) {
  ThreadPool pool{2};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 303), pool);
  const Relabeling map = degree_order_relabeling(edges, pool);
  const EdgeList renamed = apply_relabeling(edges, map);
  const Csr csr = build_csr(renamed, CsrBuildOptions{}, pool);
  // Non-increasing degree along the new ID axis (self loops removed by the
  // CSR build shift degrees slightly, so compare the raw multi-degree).
  std::vector<std::int64_t> degree(
      static_cast<std::size_t>(edges.vertex_count()), 0);
  for (const Edge& e : renamed) {
    if (e.u == e.v) continue;
    ++degree[static_cast<std::size_t>(e.u)];
    ++degree[static_cast<std::size_t>(e.v)];
  }
  for (Vertex v = 1; v < edges.vertex_count(); ++v)
    ASSERT_GE(degree[static_cast<std::size_t>(v - 1)],
              degree[static_cast<std::size_t>(v)])
        << "v=" << v;
  (void)csr;
}

TEST(Relabel, StarGraphHubBecomesVertexZero) {
  ThreadPool pool{2};
  const EdgeList star = fixtures::star_graph(16);
  const Relabeling map = degree_order_relabeling(star, pool);
  EXPECT_EQ(map.to_new(0), 0);  // the hub keeps rank 0
  EXPECT_EQ(map.to_old(0), 0);
}

TEST(Relabel, TieBreakIsDeterministic) {
  ThreadPool pool{2};
  const EdgeList path = fixtures::path_graph(6);  // degrees 1,2,2,2,2,1
  const Relabeling map = degree_order_relabeling(path, pool);
  // Equal-degree vertices keep ascending original order.
  EXPECT_EQ(map.to_old(0), 1);
  EXPECT_EQ(map.to_old(1), 2);
  EXPECT_EQ(map.to_old(2), 3);
  EXPECT_EQ(map.to_old(3), 4);
  EXPECT_EQ(map.to_old(4), 0);
  EXPECT_EQ(map.to_old(5), 5);
}

TEST(Relabel, BfsOnRelabeledGraphRestoresExactly) {
  ThreadPool pool{4};
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 307), pool);
  const Relabeling map = degree_order_relabeling(edges, pool);
  const EdgeList renamed = apply_relabeling(edges, map);

  const Csr original_csr = build_csr(edges, CsrBuildOptions{}, pool);
  const Csr renamed_csr = build_csr(renamed, CsrBuildOptions{}, pool);

  Vertex root = 0;
  while (original_csr.degree(root) == 0) ++root;
  const ReferenceBfsResult expected = reference_bfs(original_csr, root);
  const ReferenceBfsResult renamed_run =
      reference_bfs(renamed_csr, map.to_new(root));

  const std::vector<std::int32_t> restored_levels =
      map.restore_level_array(renamed_run.level);
  EXPECT_EQ(restored_levels, expected.level);

  // Restored parents must form a valid tree in original IDs.
  const std::vector<Vertex> restored_parents =
      map.restore_vertex_array(renamed_run.parent,
                               /*values_are_vertices=*/true);
  EXPECT_EQ(restored_parents[static_cast<std::size_t>(root)], root);
  for (Vertex v = 0; v < edges.vertex_count(); ++v) {
    const Vertex p = restored_parents[static_cast<std::size_t>(v)];
    if (p == kNoVertex || v == root) continue;
    ASSERT_EQ(restored_levels[static_cast<std::size_t>(v)],
              restored_levels[static_cast<std::size_t>(p)] + 1);
  }
}

TEST(Relabel, EmptyGraph) {
  ThreadPool pool{2};
  EdgeList empty{4};
  const Relabeling map = degree_order_relabeling(empty, pool);
  EXPECT_EQ(map.new_id.size(), 4u);
  EXPECT_EQ(apply_relabeling(empty, map).edge_count(), 0u);
}

TEST(Relabel, DegreeOrderMatchesSerialSortOnEveryPoolSize) {
  // Large enough that the pool sorts several runs and merges them, with
  // many ties so the ID tie-break decides most comparisons.
  constexpr std::size_t kVertices = 50'000;
  Xoroshiro128 rng{17};
  std::vector<std::int64_t> degree(kVertices);
  for (std::int64_t& d : degree)
    d = static_cast<std::int64_t>(rng.next_below(40));
  std::vector<Vertex> expected(kVertices);
  std::iota(expected.begin(), expected.end(), Vertex{0});
  std::sort(expected.begin(), expected.end(), [&](Vertex a, Vertex b) {
    const std::int64_t da = degree[static_cast<std::size_t>(a)];
    const std::int64_t db = degree[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });
  for (const std::size_t threads : {1U, 3U, 4U, 8U}) {
    ThreadPool pool{threads};
    EXPECT_EQ(degree_order(degree, pool), expected) << threads << " threads";
  }
}

}  // namespace
}  // namespace sembfs
