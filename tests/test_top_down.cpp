#include "bfs/top_down.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph_fixtures.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

/// Three forward storages over one DRAM forward graph: the graph itself,
/// its semi-external offload, and an offload with a tier limit of 1 (lists
/// longer than one entry on NVM). Every top-down test runs over each.
class ForwardSources {
 public:
  ForwardSources(const ForwardGraph& forward, const std::string& dir)
      : forward_(&forward),
        device_(std::make_shared<NvmDevice>(DeviceProfile::dram())),
        external_(forward, device_, dir + "/external"),
        tiered_(forward, device_, dir + "/tiered", /*chunk_bytes=*/4096u,
                ChunkFormat::kRaw, /*tier_limit=*/1) {}

  [[nodiscard]] std::vector<std::pair<std::string, ForwardStorage>> all() {
    return {{"dram", forward_}, {"external", &external_}, {"tiered", &tiered_}};
  }

 private:
  const ForwardGraph* forward_;
  std::shared_ptr<NvmDevice> device_;
  ExternalForwardGraph external_;
  ExternalForwardGraph tiered_;
};

StepResult step(const ForwardStorage& forward, BfsStatus& status,
                std::int32_t level, const NumaTopology& topology,
                ThreadPool& pool, int batch_size) {
  GraphStorage storage;
  storage.forward = forward;
  return top_down_step(storage, status, level, topology, pool,
                       {.batch_size = batch_size});
}

class TopDownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = fixtures::small_graph();
    partition_ = VertexPartition{edges_.vertex_count(), 2};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    sources_ = std::make_unique<ForwardSources>(forward_, dir_.path());
  }

  ThreadPool pool_{4};
  NumaTopology topology_{2, 2};
  testutil::ScopedTestDir dir_{"topdown"};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  std::unique_ptr<ForwardSources> sources_;
};

TEST_F(TopDownTest, FirstLevelClaimsRootNeighbors) {
  for (const auto& [name, forward] : sources_->all()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    const StepResult r = step(forward, status, 1, topology_, pool_, 64);
    EXPECT_EQ(r.claimed, 2);  // 1 and 3
    EXPECT_EQ(r.scanned_edges, 2);
    EXPECT_TRUE(status.is_visited(1));
    EXPECT_TRUE(status.is_visited(3));
    EXPECT_EQ(status.parent(1), 0);
    EXPECT_EQ(status.parent(3), 0);
    EXPECT_EQ(status.level(1), 1);
    std::set<Vertex> next;
    status.next_frontier().for_each_set(
        [&](std::size_t v) { next.insert(static_cast<Vertex>(v)); });
    EXPECT_EQ(next, (std::set<Vertex>{1, 3}));
  }
}

TEST_F(TopDownTest, SecondLevelContinues) {
  for (const auto& [name, forward] : sources_->all()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    step(forward, status, 1, topology_, pool_, 64);
    status.advance(pool_);
    const StepResult r = step(forward, status, 2, topology_, pool_, 64);
    // From {1,3}: neighbors are 0,2,4 (0 visited) -> claims 2 and 4.
    EXPECT_EQ(r.claimed, 2);
    EXPECT_TRUE(status.is_visited(2));
    EXPECT_TRUE(status.is_visited(4));
    // parents must come from the frontier
    EXPECT_TRUE(status.parent(4) == 1 || status.parent(4) == 3);
  }
}

TEST_F(TopDownTest, ScannedEdgesEqualsFrontierDegreeSum) {
  for (const auto& [name, forward] : sources_->all()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(1);  // degree 3
    const StepResult r = step(forward, status, 1, topology_, pool_, 64);
    EXPECT_EQ(r.scanned_edges, 3);
  }
}

TEST_F(TopDownTest, BatchSizeOneStillCorrect) {
  for (const auto& [name, forward] : sources_->all()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    const StepResult r = step(forward, status, 1, topology_, pool_, 1);
    EXPECT_EQ(r.claimed, 2);
  }
}

TEST_F(TopDownTest, NoRevisits) {
  for (const auto& [name, forward] : sources_->all()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    step(forward, status, 1, topology_, pool_, 64);
    status.advance(pool_);
    step(forward, status, 2, topology_, pool_, 64);
    status.advance(pool_);
    const StepResult r = step(forward, status, 3, topology_, pool_, 64);
    EXPECT_EQ(r.claimed, 0);  // component exhausted
    EXPECT_EQ(status.parent(5), kNoVertex);
    EXPECT_EQ(status.parent(6), kNoVertex);
  }
}

TEST_F(TopDownTest, EmptyFrontierIsNoop) {
  for (const auto& [name, forward] : sources_->all()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    status.advance(pool_);  // empty next -> empty frontier
    const StepResult r = step(forward, status, 1, topology_, pool_, 64);
    EXPECT_EQ(r.claimed, 0);
    EXPECT_EQ(r.scanned_edges, 0);
    EXPECT_EQ(r.nvm_requests, 0u);
  }
}

TEST_F(TopDownTest, ManyNodePartitionsCoverEverything) {
  const VertexPartition fine{edges_.vertex_count(), 8};
  const ForwardGraph forward_fine =
      ForwardGraph::build(edges_, fine, CsrBuildOptions{}, pool_);
  ForwardSources fine_sources{forward_fine, dir_.aux("_fine")};
  const NumaTopology topo{8, 1};
  for (const auto& [name, forward] : fine_sources.all()) {
    SCOPED_TRACE(name);
    BfsStatus status{8};
    status.reset(0);
    const StepResult r = step(forward, status, 1, topo, pool_, 64);
    EXPECT_EQ(r.claimed, 2);
  }
}

TEST_F(TopDownTest, PushQueueAscendsAfterMultiWorkerLevel) {
  // Four workers claim each level's vertices in whatever order they meet
  // them; the next level's push queue still lists exactly that level's
  // vertices, ascending.
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 3), pool_);
  const VertexPartition partition{edges.vertex_count(), 2};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool_);
  ForwardSources sources{forward, dir_.aux("_kron")};
  const Csr full = build_csr(edges, CsrBuildOptions{}, pool_);
  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  for (const auto& [name, storage] : sources.all()) {
    SCOPED_TRACE(name);
    BfsStatus status{edges.vertex_count()};
    status.reset(root);
    std::int32_t level = 1;
    for (; status.frontier_size() > 0; ++level) {
      step(storage, status, level, topology_, pool_, 1);
      status.advance(pool_);
      std::vector<Vertex> expected;
      for (Vertex v = 0; v < edges.vertex_count(); ++v)
        if (status.level(v) == level) expected.push_back(v);
      ASSERT_EQ(status.frontier_queue(pool_), expected) << "level " << level;
    }
    EXPECT_GT(level, 3);  // several levels, most with many claims
  }
}

TEST(TopDownStar, HubExplosion) {
  ThreadPool pool{4};
  const EdgeList edges = fixtures::star_graph(64);
  const VertexPartition partition{64, 4};
  const ForwardGraph forward_dram =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  testutil::ScopedTestDir dir{"topdown"};
  ForwardSources sources{forward_dram, dir.path()};
  const NumaTopology topo{4, 1};
  for (const auto& [name, forward] : sources.all()) {
    SCOPED_TRACE(name);
    BfsStatus status{64};
    status.reset(0);
    const StepResult r = step(forward, status, 1, topo, pool, 8);
    EXPECT_EQ(r.claimed, 63);
    EXPECT_EQ(r.scanned_edges, 63);
  }
}

}  // namespace
}  // namespace sembfs
