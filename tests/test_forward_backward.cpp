#include "graph/backward_graph.hpp"
#include "graph/forward_graph.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph_fixtures.hpp"

namespace sembfs {
namespace {

class ForwardBackwardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = generate_kronecker(fixtures::small_kronecker(9, 8, 3), pool_);
    partition_ = VertexPartition{edges_.vertex_count(), 4};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    full_ = build_csr(edges_, CsrBuildOptions{}, pool_);
  }

  ThreadPool pool_{4};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  BackwardGraph backward_;
  Csr full_;
};

TEST_F(ForwardBackwardTest, PartitionCounts) {
  EXPECT_EQ(forward_.node_count(), 4u);
  EXPECT_EQ(backward_.node_count(), 4u);
  EXPECT_EQ(forward_.vertex_count(), edges_.vertex_count());
}

TEST_F(ForwardBackwardTest, EntryTotalsMatchFullGraph) {
  EXPECT_EQ(forward_.entry_count(), full_.entry_count());
  EXPECT_EQ(backward_.entry_count(), full_.entry_count());
}

TEST_F(ForwardBackwardTest, ForwardPartitionsFilterDestinations) {
  for (std::size_t k = 0; k < forward_.node_count(); ++k) {
    const Csr& part = forward_.partition(k);
    const VertexRange range = partition_.range_of(k);
    EXPECT_EQ(part.destination_range(), range);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      for (const Vertex dst : part.neighbors(v))
        ASSERT_TRUE(range.contains(dst)) << "node " << k;
  }
}

TEST_F(ForwardBackwardTest, ForwardPartitionsUnionToFullAdjacency) {
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    std::multiset<Vertex> merged;
    for (std::size_t k = 0; k < forward_.node_count(); ++k) {
      const auto adj = forward_.partition(k).neighbors(v);
      merged.insert(adj.begin(), adj.end());
    }
    const auto adj = full_.neighbors(v);
    const std::multiset<Vertex> expected(adj.begin(), adj.end());
    ASSERT_EQ(merged, expected) << "vertex " << v;
  }
}

TEST_F(ForwardBackwardTest, BackwardPartitionsCoverOwnSourcesOnly) {
  for (std::size_t k = 0; k < backward_.node_count(); ++k) {
    const Csr& part = backward_.partition(k);
    EXPECT_EQ(part.source_range(), partition_.range_of(k));
  }
}

TEST_F(ForwardBackwardTest, BackwardNeighborsMatchFullAdjacency) {
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    const auto adj = backward_.neighbors(v);
    const std::multiset<Vertex> got(adj.begin(), adj.end());
    const auto fadj = full_.neighbors(v);
    const std::multiset<Vertex> expected(fadj.begin(), fadj.end());
    ASSERT_EQ(got, expected) << "vertex " << v;
  }
}

TEST_F(ForwardBackwardTest, BackwardListsAreHubFirst) {
  // One total order over the vertices: full degree descending, then ID.
  const auto before = [&](Vertex a, Vertex b) {
    const std::int64_t da = full_.degree(a);
    const std::int64_t db = full_.degree(b);
    return da != db ? da > db : a < b;
  };
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    const auto adj = backward_.neighbors(v);
    for (std::size_t i = 1; i < adj.size(); ++i)
      ASSERT_FALSE(before(adj[i], adj[i - 1]))
          << "vertex " << v << " position " << i;
  }
}

TEST_F(ForwardBackwardTest, DegreeZeroMaskIsTheIsolatedSet) {
  const Bitmap& mask = backward_.degree_zero();
  ASSERT_EQ(mask.size(), static_cast<std::size_t>(edges_.vertex_count()));
  std::size_t isolated = 0;
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    EXPECT_EQ(mask.test(static_cast<std::size_t>(v)), full_.degree(v) == 0)
        << "vertex " << v;
    isolated += full_.degree(v) == 0 ? 1 : 0;
  }
  EXPECT_GT(isolated, 0U);  // Kronecker graphs leave vertices isolated
  EXPECT_EQ(mask.count(), isolated);
}

TEST_F(ForwardBackwardTest, HubIsFirstEntryAndNoVertexForDegreeZero) {
  const std::span<const Vertex> hubs = backward_.hubs();
  ASSERT_EQ(hubs.size(), static_cast<std::size_t>(edges_.vertex_count()));
  std::size_t absent = 0;
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    const auto adj = backward_.neighbors(v);
    const Vertex hub = hubs[static_cast<std::size_t>(v)];
    if (adj.empty()) {
      EXPECT_EQ(hub, kNoVertex) << "vertex " << v;
      ++absent;
    } else {
      EXPECT_EQ(hub, adj[0]) << "vertex " << v;
    }
  }
  EXPECT_EQ(absent, backward_.degree_zero().count());
}

TEST_F(ForwardBackwardTest, SummaryBytesAreHubArrayAndMask) {
  // n x 8 B of hubs plus n / 8 B of mask (in whole words), beside the CSR
  // arrays that byte_size() counts.
  const auto n = static_cast<std::uint64_t>(edges_.vertex_count());
  EXPECT_EQ(backward_.summary_byte_size(),
            n * sizeof(Vertex) + (n + 63) / 64 * sizeof(std::uint64_t));
}

TEST_F(ForwardBackwardTest, ForwardLargerThanBackward) {
  // The forward graph duplicates its index array per node (paper Fig. 3:
  // forward graph is the biggest structure).
  EXPECT_GT(forward_.byte_size(), backward_.byte_size());
  // Index entries: forward l*(n+1), backward n+l -> difference (l-1)*n.
  const std::uint64_t expected_overhead =
      (forward_.node_count() - 1) *
      static_cast<std::uint64_t>(edges_.vertex_count()) *
      sizeof(std::int64_t);
  EXPECT_EQ(forward_.byte_size() - backward_.byte_size(), expected_overhead);
}

TEST_F(ForwardBackwardTest, IndexEntryAccounting) {
  // forward index entries: l * (n + 1); backward: n + l.
  std::uint64_t forward_index = 0;
  for (std::size_t k = 0; k < forward_.node_count(); ++k)
    forward_index += forward_.partition(k).index().size();
  std::uint64_t backward_index = 0;
  for (std::size_t k = 0; k < backward_.node_count(); ++k)
    backward_index += backward_.partition(k).index().size();
  const auto n = static_cast<std::uint64_t>(edges_.vertex_count());
  EXPECT_EQ(forward_index, 4 * (n + 1));
  EXPECT_EQ(backward_index, n + 4);
}

TEST(ForwardGraph, SingleNodeDegeneratesToFullCsr) {
  ThreadPool pool{2};
  const EdgeList edges = fixtures::small_graph();
  const VertexPartition partition{edges.vertex_count(), 1};
  const ForwardGraph fg =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool);
  ASSERT_EQ(fg.node_count(), 1u);
  EXPECT_EQ(fg.partition(0).entry_count(), full.entry_count());
}

}  // namespace
}  // namespace sembfs
