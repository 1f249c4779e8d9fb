#include "graph/tiered_forward.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "bfs/reference_bfs.hpp"
#include "engine/bfs_program.hpp"
#include "graph_fixtures.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class TieredForwardTest : public ::testing::TestWithParam<std::int64_t> {
 protected:
  void SetUp() override {
    edges_ = generate_kronecker(fixtures::small_kronecker(10, 8, 61), pool_);
    partition_ = VertexPartition{edges_.vertex_count(), 4};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
  }
  TieredForwardGraph make(std::int64_t threshold) {
    return TieredForwardGraph{forward_, threshold, device_, dir_.path(), pool_};
  }

  ThreadPool pool_{4};
  testutil::ScopedTestDir dir_{"tiered"};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  BackwardGraph backward_;
  std::shared_ptr<NvmDevice> device_;
};

TEST_P(TieredForwardTest, FetchMatchesDramForward) {
  TieredForwardGraph tiered = make(GetParam());
  std::vector<Vertex> got;
  for (std::size_t k = 0; k < tiered.node_count(); ++k) {
    const Csr& dram = forward_.partition(k);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
      tiered.partition(k).fetch_neighbors(v, got);
      const auto adj = dram.neighbors(v);
      // Adjacency *sets* must agree; the parallel CSR scatter does not
      // guarantee a stable order.
      std::multiset<Vertex> got_set(got.begin(), got.end());
      std::multiset<Vertex> expected(adj.begin(), adj.end());
      ASSERT_EQ(got_set, expected) << "node " << k << " v " << v;
    }
  }
}

TEST_P(TieredForwardTest, RoutingObeysThreshold) {
  const std::int64_t threshold = GetParam();
  TieredForwardGraph tiered = make(threshold);
  for (std::size_t k = 0; k < tiered.node_count(); ++k) {
    const Csr& dram = forward_.partition(k);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
      EXPECT_EQ(tiered.partition(k).is_on_nvm(v),
                dram.degree(v) > threshold)
          << "node " << k << " v " << v;
    }
  }
}

TEST_P(TieredForwardTest, DramFetchesIssueNoRequests) {
  TieredForwardGraph tiered = make(GetParam());
  device_->stats().reset();
  std::vector<Vertex> got;
  std::uint64_t reported = 0;
  for (std::size_t k = 0; k < tiered.node_count(); ++k)
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      if (!tiered.partition(k).is_on_nvm(v))
        reported += tiered.partition(k).fetch_neighbors(v, got);
  EXPECT_EQ(reported, 0u);
  EXPECT_EQ(device_->stats().request_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TieredForwardTest,
                         ::testing::Values(0, 1, 4, 16, 1 << 20));

TEST_F(TieredForwardTest, ThresholdZeroIsFullyExternal) {
  TieredForwardGraph tiered = make(0);
  std::int64_t dram_vertices_with_edges = 0;
  for (std::size_t k = 0; k < tiered.node_count(); ++k) {
    const Csr& dram = forward_.partition(k);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      if (dram.degree(v) > 0 && !tiered.partition(k).is_on_nvm(v))
        ++dram_vertices_with_edges;
  }
  EXPECT_EQ(dram_vertices_with_edges, 0);
}

TEST_F(TieredForwardTest, HugeThresholdKeepsEverythingInDram) {
  TieredForwardGraph tiered = make(1 << 20);
  EXPECT_EQ(tiered.nvm_byte_size(),
            // the NVM sub-CSR still stores its (all-zero-width) index array
            tiered.node_count() *
                (static_cast<std::uint64_t>(edges_.vertex_count()) + 1) * 8);
  device_->stats().reset();
  std::vector<Vertex> got;
  for (std::size_t k = 0; k < tiered.node_count(); ++k)
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      tiered.partition(k).fetch_neighbors(v, got);
  EXPECT_EQ(device_->stats().request_count(), 0u);
}

TEST_F(TieredForwardTest, LowThresholdMovesMostBytesToNvm) {
  TieredForwardGraph aggressive = make(2);
  TieredForwardGraph lenient = make(64);
  EXPECT_GT(aggressive.nvm_byte_size(), lenient.nvm_byte_size());
  EXPECT_LT(aggressive.dram_byte_size(), lenient.dram_byte_size());
}

TEST_F(TieredForwardTest, TieredBfsMatchesReference) {
  TieredForwardGraph tiered = make(4);
  const Csr full = build_csr(edges_, CsrBuildOptions{}, pool_);
  GraphStorage storage;
  storage.forward = &tiered;
  storage.backward = &backward_;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  for (const BfsMode mode :
       {BfsMode::Hybrid, BfsMode::TopDownOnly, BfsMode::BottomUpOnly}) {
    BfsConfig config;
    config.mode = mode;
    const BfsResult result = runner.run(root, config);
    const ReferenceBfsResult ref = reference_bfs(full, root);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      ASSERT_EQ(result.level[v], ref.level[v])
          << "mode " << static_cast<int>(mode) << " v " << v;
  }
}

TEST_F(TieredForwardTest, TieredCutsRequestsVsFullyExternal) {
  // The headline property: late top-down levels touch degree-1 vertices,
  // which the tiered layout serves from DRAM. Both layouts are compared
  // under the same per-vertex reads of the same expansions: the tiered
  // BFS reads hubs one vertex at a time, while the external BFS merges
  // whole batches and so issues far fewer requests than either.
  TieredForwardGraph tiered = make(4);
  ExternalForwardGraph external{forward_, device_, dir_.aux("_ext")};
  const Csr full = build_csr(edges_, CsrBuildOptions{}, pool_);

  GraphStorage tiered_storage;
  tiered_storage.forward = &tiered;
  tiered_storage.backward = &backward_;
  HybridBfsRunner tiered_runner{tiered_storage, NumaTopology{4, 1}, pool_};

  Vertex root = 0;
  while (full.degree(root) == 0) ++root;
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;
  const BfsResult traversal = tiered_runner.run(root, config);
  const std::uint64_t tiered_requests = traversal.nvm_requests;
  // Every reached vertex is expanded once against every partition.
  std::uint64_t external_requests = 0;
  std::vector<Vertex> scratch;
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    if (traversal.level[v] < 0) continue;
    for (std::size_t k = 0; k < external.node_count(); ++k)
      external_requests += external.partition(k).fetch_neighbors(v, scratch);
  }
  EXPECT_LT(tiered_requests, external_requests / 2);
}

}  // namespace
}  // namespace sembfs
