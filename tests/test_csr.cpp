#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph_fixtures.hpp"

namespace sembfs {
namespace {

std::set<Vertex> neighbor_set(const Csr& csr, Vertex v) {
  const auto adj = csr.neighbors(v);
  return {adj.begin(), adj.end()};
}

TEST(Csr, UndirectedAdjacency) {
  ThreadPool pool{2};
  const EdgeList edges = fixtures::small_graph();
  const Csr csr = build_csr(edges, CsrBuildOptions{}, pool);
  EXPECT_EQ(csr.global_vertex_count(), 8);
  EXPECT_EQ(neighbor_set(csr, 0), (std::set<Vertex>{1, 3}));
  EXPECT_EQ(neighbor_set(csr, 1), (std::set<Vertex>{0, 2, 4}));
  EXPECT_EQ(neighbor_set(csr, 4), (std::set<Vertex>{1, 3}));
  EXPECT_EQ(neighbor_set(csr, 7), (std::set<Vertex>{}));
  EXPECT_EQ(csr.entry_count(), 12);  // 6 edges x 2 directions
}

TEST(Csr, DegreeMatchesAdjacency) {
  ThreadPool pool{2};
  const Csr csr = build_csr(fixtures::small_graph(), CsrBuildOptions{}, pool);
  for (Vertex v = 0; v < 8; ++v)
    EXPECT_EQ(csr.degree(v),
              static_cast<std::int64_t>(csr.neighbors(v).size()));
}

TEST(Csr, SelfLoopsRemovedByDefault) {
  ThreadPool pool{2};
  EdgeList edges{3};
  edges.add(0, 0);
  edges.add(0, 1);
  edges.add(1, 1);
  const Csr csr = build_csr(edges, CsrBuildOptions{}, pool);
  EXPECT_EQ(csr.entry_count(), 2);
  EXPECT_EQ(neighbor_set(csr, 0), (std::set<Vertex>{1}));
}

TEST(Csr, SortNeighbors) {
  ThreadPool pool{2};
  EdgeList edges{5};
  edges.add(0, 4);
  edges.add(0, 2);
  edges.add(0, 3);
  edges.add(0, 1);
  CsrBuildOptions opts;
  opts.sort_neighbors = true;
  const Csr csr = build_csr(edges, opts, pool);
  const auto adj = csr.neighbors(0);
  EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
}

TEST(Csr, SourceFilteredBuild) {
  ThreadPool pool{2};
  const EdgeList edges = fixtures::small_graph();
  const Csr csr = build_csr_filtered(edges, VertexRange{0, 4},
                                     VertexRange{0, 8}, CsrBuildOptions{},
                                     pool);
  EXPECT_EQ(csr.source_range(), (VertexRange{0, 4}));
  EXPECT_TRUE(csr.covers_source(3));
  EXPECT_FALSE(csr.covers_source(4));
  EXPECT_EQ(neighbor_set(csr, 1), (std::set<Vertex>{0, 2, 4}));
  // entries: degrees of 0,1,2,3 = 2+3+1+2 = 8
  EXPECT_EQ(csr.entry_count(), 8);
}

TEST(Csr, DestinationFilteredBuild) {
  ThreadPool pool{2};
  const EdgeList edges = fixtures::small_graph();
  const Csr csr = build_csr_filtered(edges, VertexRange{0, 8},
                                     VertexRange{0, 2}, CsrBuildOptions{},
                                     pool);
  // Only destinations 0 and 1 survive.
  EXPECT_EQ(neighbor_set(csr, 0), (std::set<Vertex>{1}));
  EXPECT_EQ(neighbor_set(csr, 2), (std::set<Vertex>{1}));
  EXPECT_EQ(neighbor_set(csr, 4), (std::set<Vertex>{1}));
  EXPECT_EQ(neighbor_set(csr, 3), (std::set<Vertex>{0}));
}

TEST(Csr, FilteredBuildsTileFullGraph) {
  // Partitioning destinations over k ranges must exactly tile the entries.
  ThreadPool pool{4};
  const EdgeList edges = generate_kronecker(fixtures::small_kronecker(9), pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  const VertexPartition partition{edges.vertex_count(), 4};
  std::int64_t total = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const Csr part = build_csr_filtered(edges, VertexRange{0, edges.vertex_count()},
                                        partition.range_of(k),
                                        CsrBuildOptions{}, pool);
    total += part.entry_count();
    // Every destination stays in the node's range.
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      for (const Vertex dst : part.neighbors(v))
        ASSERT_TRUE(partition.range_of(k).contains(dst));
  }
  EXPECT_EQ(total, full.entry_count());
}

TEST(Csr, ByteSizeAccountsArrays) {
  ThreadPool pool{2};
  const Csr csr = build_csr(fixtures::small_graph(), CsrBuildOptions{}, pool);
  EXPECT_EQ(csr.byte_size(),
            9 * sizeof(std::int64_t) + 12 * sizeof(Vertex));
}

TEST(Csr, IndependentOfThreadCount) {
  ThreadPool pool1{1};
  ThreadPool pool8{8};
  const EdgeList edges = generate_kronecker(fixtures::small_kronecker(9), pool8);
  CsrBuildOptions opts;
  opts.sort_neighbors = true;  // canonical order for comparison
  const Csr a = build_csr(edges, opts, pool1);
  const Csr b = build_csr(edges, opts, pool8);
  EXPECT_EQ(a.index(), b.index());
  EXPECT_EQ(a.values(), b.values());
}

TEST(Csr, EmptyGraph) {
  ThreadPool pool{2};
  EdgeList edges{4};
  const Csr csr = build_csr(edges, CsrBuildOptions{}, pool);
  EXPECT_EQ(csr.entry_count(), 0);
  for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(csr.degree(v), 0);
}

}  // namespace
}  // namespace sembfs
