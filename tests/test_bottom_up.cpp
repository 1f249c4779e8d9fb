#include "bfs/bottom_up.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bfs/reference_bfs.hpp"
#include "graph_fixtures.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class BottomUpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = fixtures::small_graph();
    partition_ = VertexPartition{edges_.vertex_count(), 2};
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    hybrid_ = std::make_unique<HybridBackwardGraph>(backward_, 1, device_,
                                                    dir_.path());
  }

  /// Both backward storages: the DRAM graph and its first-1-edge split
  /// (the rest of every list on NVM). Every bottom-up test runs over each.
  [[nodiscard]] std::vector<std::pair<std::string, BackwardStorage>>
  sources() {
    return {{"dram", &backward_}, {"hybrid", hybrid_.get()}};
  }

  ThreadPool pool_{4};
  NumaTopology topology_{2, 2};
  testutil::ScopedTestDir dir_{"bottomup"};
  EdgeList edges_;
  VertexPartition partition_;
  BackwardGraph backward_;
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<HybridBackwardGraph> hybrid_;
};

TEST_F(BottomUpTest, ClaimsSameFrontierAsTopDownWould) {
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    const StepResult r =
        bottom_up_step(backward, status, 1, topology_, pool_, 2);
    EXPECT_EQ(r.claimed, 2);  // 1 and 3 find 0 in the frontier
    const std::set<Vertex> next(status.next().begin(), status.next().end());
    EXPECT_EQ(next, (std::set<Vertex>{1, 3}));
    EXPECT_EQ(status.parent(1), 0);
    EXPECT_EQ(status.parent(3), 0);
  }
}

TEST_F(BottomUpTest, ParentIsAlwaysFrontierMember) {
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    bottom_up_step(backward, status, 1, topology_, pool_, 2);
    status.advance();  // frontier = {1, 3}
    bottom_up_step(backward, status, 2, topology_, pool_, 2);
    EXPECT_TRUE(status.is_visited(2));
    EXPECT_TRUE(status.is_visited(4));
    EXPECT_EQ(status.parent(2), 1);
    EXPECT_TRUE(status.parent(4) == 1 || status.parent(4) == 3);
  }
}

TEST_F(BottomUpTest, EarlyExitScansNoMoreAfterHit) {
  // From a full frontier every unvisited vertex stops at its first
  // neighbor: scanned == number of unvisited-with-edges vertices... at most
  // scanned <= sum of degrees; with early exit it is strictly less for
  // vertices whose first neighbor is already in the frontier.
  ThreadPool pool{4};
  const EdgeList edges = fixtures::complete_graph(8);
  const VertexPartition partition{8, 2};
  const BackwardGraph backward_dram =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  HybridBackwardGraph hybrid{backward_dram, 1, device_, dir_.aux("_k8")};
  const NumaTopology topo{2, 2};
  for (const auto& [name, backward] :
       std::vector<std::pair<std::string, BackwardStorage>>{
           {"dram", &backward_dram}, {"hybrid", &hybrid}}) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    const StepResult r = bottom_up_step(backward, status, 1, topo, pool, 2);
    EXPECT_EQ(r.claimed, 7);
    // K8: every unvisited vertex stops at vertex 0; wherever 0 sits in each
    // adjacency list, total scanned stays within [7, 7*7].
    EXPECT_LE(r.scanned_edges, 49);
    EXPECT_GE(r.scanned_edges, 7);
  }
}

TEST_F(BottomUpTest, UnreachableComponentNeverClaimed) {
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    for (int level = 1; level <= 4; ++level) {
      bottom_up_step(backward, status, level, topology_, pool_, 2);
      status.advance();
    }
    EXPECT_EQ(status.parent(5), kNoVertex);
    EXPECT_EQ(status.parent(6), kNoVertex);
    EXPECT_EQ(status.parent(7), kNoVertex);
    EXPECT_EQ(status.visited_count(), 5);
  }
}

TEST_F(BottomUpTest, EmptyFrontierClaimsNothing) {
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    status.advance();  // frontier empty
    const StepResult r =
        bottom_up_step(backward, status, 1, topology_, pool_, 2);
    EXPECT_EQ(r.claimed, 0);
  }
}

TEST_F(BottomUpTest, BitmapOutputMatchesQueueOutput) {
  // The same search run once per backward source and output
  // representation must build identical trees — only the storage and the
  // next-frontier container differ. The DRAM queue run is the reference.
  BfsStatus reference{8};
  reference.reset(0);
  std::vector<std::int64_t> claimed;
  std::vector<std::int64_t> frontier;
  for (int level = 1; level <= 4; ++level) {
    claimed.push_back(bottom_up_step(&backward_, reference, level, topology_,
                                     pool_, 2, BottomUpOutput::Queue)
                          .claimed);
    reference.advance();
    frontier.push_back(reference.frontier_size());
  }
  for (const auto& [name, backward] : sources()) {
    for (const BottomUpOutput output :
         {BottomUpOutput::Queue, BottomUpOutput::Bitmap}) {
      SCOPED_TRACE(name + (output == BottomUpOutput::Queue ? " queue"
                                                           : " bitmap"));
      BfsStatus status{8};
      status.reset(0);
      for (int level = 1; level <= 4; ++level) {
        const StepResult r = bottom_up_step(backward, status, level,
                                            topology_, pool_, 2, output);
        EXPECT_EQ(r.claimed, claimed[level - 1]) << "level " << level;
        status.advance();
        EXPECT_EQ(status.frontier_size(), frontier[level - 1])
            << "level " << level;
      }
      for (Vertex v = 0; v < 8; ++v) {
        EXPECT_EQ(status.level(v), reference.level(v)) << "v=" << v;
        EXPECT_EQ(status.parent(v) == kNoVertex,
                  reference.parent(v) == kNoVertex)
            << "v=" << v;
      }
    }
  }
}

TEST_F(BottomUpTest, BitmapOutputFrontierSupportsNextSweep) {
  // A bitmap-rep frontier must drive the following bottom-up level without
  // any queue materialization: in_frontier reads the bitmap directly.
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    bottom_up_step(backward, status, 1, topology_, pool_, 2,
                   BottomUpOutput::Bitmap);
    status.advance();
    ASSERT_EQ(status.frontier_rep(), FrontierRep::Bitmap);
    EXPECT_EQ(status.frontier_size(), 2);  // {1, 3}
    bottom_up_step(backward, status, 2, topology_, pool_, 2,
                   BottomUpOutput::Bitmap);
    status.advance();
    EXPECT_TRUE(status.is_visited(2));
    EXPECT_TRUE(status.is_visited(4));
    EXPECT_EQ(status.parent(2), 1);
  }
}

TEST_F(BottomUpTest, HybridBitmapOutputMatchesDramQueue) {
  BfsStatus dram_status{8};
  BfsStatus hybrid_status{8};
  dram_status.reset(0);
  hybrid_status.reset(0);
  for (int level = 1; level <= 3; ++level) {
    bottom_up_step(&backward_, dram_status, level, topology_, pool_, 2);
    bottom_up_step(hybrid_.get(), hybrid_status, level, topology_, pool_, 2,
                   BottomUpOutput::Bitmap);
    dram_status.advance();
    hybrid_status.advance();
  }
  for (Vertex v = 0; v < 8; ++v)
    EXPECT_EQ(dram_status.level(v), hybrid_status.level(v)) << "v=" << v;
}

TEST_F(BottomUpTest, HybridVariantMatchesDram) {
  BfsStatus dram_status{8};
  BfsStatus hybrid_status{8};
  dram_status.reset(0);
  hybrid_status.reset(0);
  for (int level = 1; level <= 3; ++level) {
    bottom_up_step(&backward_, dram_status, level, topology_, pool_, 2);
    bottom_up_step(hybrid_.get(), hybrid_status, level, topology_, pool_, 2);
    dram_status.advance();
    hybrid_status.advance();
  }
  for (Vertex v = 0; v < 8; ++v)
    EXPECT_EQ(dram_status.level(v), hybrid_status.level(v)) << "v=" << v;
}

TEST_F(BottomUpTest, MaskedSweepMatchesReferencePerLevel) {
  // A Kronecker graph leaves many vertices with degree 0, so most words
  // carry masked bits. Every level claims exactly the reference BFS's
  // vertices of that level and sums their degrees.
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 5), pool_);
  const VertexPartition partition{edges.vertex_count(), 2};
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  ASSERT_GT(backward.degree_zero().count(), 0U);
  HybridBackwardGraph hybrid{backward, 2, device_, dir_.aux("_kron")};
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool_);
  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  const ReferenceBfsResult ref = reference_bfs(full, root);

  for (const auto& [name, storage] :
       std::vector<std::pair<std::string, BackwardStorage>>{
           {"dram", &backward}, {"hybrid", &hybrid}}) {
    SCOPED_TRACE(name);
    obs::metrics().reset();
    obs::set_enabled(true);
    BfsStatus status{edges.vertex_count()};
    status.reset(root);
    for (std::int32_t level = 1; status.frontier_size() > 0; ++level) {
      const StepResult r =
          bottom_up_step(storage, status, level, topology_, pool_, 64);
      std::int64_t claimed = 0;
      std::int64_t degrees = 0;
      for (Vertex v = 0; v < edges.vertex_count(); ++v) {
        if (ref.level[v] != level) continue;
        ++claimed;
        degrees += full.degree(v);
      }
      EXPECT_EQ(r.claimed, claimed) << "level " << level;
      EXPECT_EQ(r.claimed_degrees, degrees) << "level " << level;
      status.advance();
      for (Vertex v = 0; v < edges.vertex_count(); ++v)
        ASSERT_EQ(status.is_visited(v),
                  ref.level[v] >= 0 && ref.level[v] <= level)
            << "level " << level << " v=" << v;
    }
    obs::set_enabled(false);
    // Every word holds a degree-0 vertex; only the mask lets one be
    // skipped once its other vertices are visited.
    EXPECT_GT(obs::metrics().counter("bfs.bottom_up.words_skipped").value(),
              0U);
    for (Vertex v = 0; v < edges.vertex_count(); ++v)
      ASSERT_EQ(status.level(v), ref.level[v]) << "v=" << v;
  }
}

TEST_F(BottomUpTest, DeltaInsertReachesDegreeZeroBaseVertex) {
  // Vertex 7 has no base edges, so the mask covers it. Under a delta that
  // inserts 4-7 the sweep must still visit it: 7 joins level 3 under
  // parent 4, with its merged-view degree of 1.
  ASSERT_TRUE(backward_.degree_zero().test(7));
  const std::vector<EdgeOp> ops{EdgeOp::insert(4, 7)};
  const DeltaBuffer delta = DeltaBuffer::build(
      8, ops, [](Vertex, Vertex) -> std::int64_t { return 0; });
  for (const auto& [name, backward] : sources()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    StepResult last;
    for (int level = 1; level <= 3; ++level) {
      last = bottom_up_step(backward, status, level, topology_, pool_, 2,
                            BottomUpOutput::Queue, &delta);
      status.advance();
    }
    EXPECT_EQ(last.claimed, 1);
    EXPECT_EQ(last.claimed_degrees, 1);
    EXPECT_EQ(status.level(7), 3);
    EXPECT_EQ(status.parent(7), 4);
  }
}

TEST_F(BottomUpTest, HybridCountsNvmWork) {
  HybridBackwardGraph hybrid{backward_, 0, device_,
                             dir_.aux("_nvm")};  // all on NVM

  BfsStatus status{8};
  status.reset(0);
  const std::uint64_t before = device_->stats().snapshot().requests;
  const StepResult r =
      bottom_up_step(&hybrid, status, 1, topology_, pool_, 2);
  const std::uint64_t served = device_->stats().snapshot().requests - before;
  EXPECT_EQ(r.claimed, 2);
  EXPECT_GT(hybrid.nvm_edges_examined(), 0u);
  EXPECT_EQ(hybrid.dram_edges_examined(), 0u);
  // Every tail read reaches the step's request count.
  EXPECT_GT(r.nvm_requests, 0u);
  EXPECT_EQ(r.nvm_requests, served);
}

}  // namespace
}  // namespace sembfs
