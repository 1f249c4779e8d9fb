// Streaming Step 2: every CSR is built from an edge stream. A CSR streamed
// in 1000-edge batches from the NVM-resident edge list must equal the one
// built from the in-memory list, which the EdgeList adapters hand to the
// same builder as one batch, so batch boundaries never change the arrays.
// The full offloaded pipeline (edge list on NVM -> streamed construction ->
// BFS -> NVM validation) must pass Graph500 validation end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "graph500/instance.hpp"
#include "graph_fixtures.hpp"

namespace sembfs {
namespace {

class StreamConstructionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs every case as its own process, and a
    // shared directory lets one process truncate files another is reading.
    dir_ = ::testing::TempDir() + "/sembfs_stream_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    edges_ = generate_kronecker(fixtures::small_kronecker(10, 8, 101), pool_);
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
    external_ = std::make_unique<ExternalEdgeList>(
        device_, dir_ + "/edges.bin", edges_.vertex_count());
    external_->append_all(edges_);
    stream_ = [this](const std::function<void(std::span<const Edge>)>& sink) {
      external_->for_each_batch(1000, sink);
    };
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ThreadPool pool_{4};
  std::string dir_;
  EdgeList edges_;
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<ExternalEdgeList> external_;
  EdgeStream stream_;
};

void expect_same_adjacency(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.source_range(), b.source_range());
  ASSERT_EQ(a.entry_count(), b.entry_count());
  for (Vertex v = a.source_range().begin; v < a.source_range().end; ++v) {
    const auto adj_a = a.neighbors(v);
    const auto adj_b = b.neighbors(v);
    const std::multiset<Vertex> sa(adj_a.begin(), adj_a.end());
    const std::multiset<Vertex> sb(adj_b.begin(), adj_b.end());
    ASSERT_EQ(sa, sb) << "v=" << v;
  }
}

// Unsorted lists hold the scatter's order, which depends on thread timing,
// so the unsorted comparisons are per-list multisets.
TEST_F(StreamConstructionTest, FullCsrMatchesInMemoryBuild) {
  const VertexRange all{0, edges_.vertex_count()};
  const Csr one_batch = build_csr(edges_, CsrBuildOptions{}, pool_);
  const Csr batched = build_csr_filtered(edges_.vertex_count(), stream_, all,
                                         all, CsrBuildOptions{}, pool_);
  expect_same_adjacency(one_batch, batched);
}

TEST_F(StreamConstructionTest, SortedStreamedBuildIsBitIdentical) {
  CsrBuildOptions options;
  options.sort_neighbors = true;
  const VertexRange all{0, edges_.vertex_count()};
  const Csr one_batch = build_csr(edges_, options, pool_);
  const Csr batched = build_csr_filtered(edges_.vertex_count(), stream_, all,
                                         all, options, pool_);
  EXPECT_EQ(batched.index(), one_batch.index());
  EXPECT_EQ(batched.values(), one_batch.values());
}

TEST_F(StreamConstructionTest, ForwardAndBackwardStreamBuilds) {
  const VertexPartition partition{edges_.vertex_count(), 4};
  const ForwardGraph fg_one =
      ForwardGraph::build(edges_, partition, CsrBuildOptions{}, pool_);
  const ForwardGraph fg_batched = ForwardGraph::build(
      edges_.vertex_count(), stream_, partition, CsrBuildOptions{}, pool_);
  EXPECT_EQ(fg_batched.entry_count(), fg_one.entry_count());
  for (std::size_t k = 0; k < 4; ++k)
    expect_same_adjacency(fg_one.partition(k), fg_batched.partition(k));

  // Backward lists are hub-first by one total order, not in the order a
  // build's parallel scatter wrote them, so the one-batch, 1000-edge-batch
  // and 8-worker builds agree bit for bit.
  const BackwardGraph bg_one =
      BackwardGraph::build(edges_, partition, CsrBuildOptions{}, pool_);
  const BackwardGraph bg_batched = BackwardGraph::build(
      edges_.vertex_count(), stream_, partition, CsrBuildOptions{}, pool_);
  ThreadPool wide{8};
  const BackwardGraph bg_wide =
      BackwardGraph::build(edges_, partition, CsrBuildOptions{}, wide);
  for (const BackwardGraph* other : {&bg_batched, &bg_wide}) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(other->partition(k).index(), bg_one.partition(k).index());
      EXPECT_EQ(other->partition(k).values(), bg_one.partition(k).values());
    }
    EXPECT_TRUE(std::ranges::equal(other->degree_zero().words(),
                                   bg_one.degree_zero().words()));
    EXPECT_TRUE(std::ranges::equal(other->hubs(), bg_one.hubs()));
  }
}

TEST_F(StreamConstructionTest, StreamingGeneratesEdgeListDeviceTraffic) {
  device_->stats().reset();
  const VertexRange all{0, edges_.vertex_count()};
  (void)build_csr_filtered(edges_.vertex_count(), stream_, all, all,
                           CsrBuildOptions{}, pool_);
  // Two passes over ceil(edges/1000) batches.
  const std::uint64_t batches = (edges_.edge_count() + 999) / 1000;
  EXPECT_EQ(device_->stats().request_count(), 2 * batches);
}

TEST_F(StreamConstructionTest, OffloadedInstancePipelineValidates) {
  InstanceConfig config;
  config.kronecker = fixtures::small_kronecker(10, 8, 103);
  config.scenario = Scenario::dram_pcie_flash();
  config.scenario.time_scale = 0.001;
  config.workdir = dir_ + "/inst";
  config.offload_edge_list = true;
  Graph500Instance instance{config, pool_};

  EXPECT_NE(instance.external_edge_list(), nullptr);
  EXPECT_NE(instance.edge_list_device(), nullptr);
  // Edge-list device and graph device are distinct (paper Section VI-D).
  EXPECT_NE(instance.edge_list_device(), instance.nvm_device());

  for (const Vertex root : instance.select_roots(3, 7)) {
    const BfsResult result = instance.run_bfs(root, BfsConfig{});
    const ValidationResult v = instance.validate(result);
    EXPECT_TRUE(v.ok) << "root " << root << ": " << v.error;
  }
}

TEST_F(StreamConstructionTest, OffloadedInstanceMatchesInMemoryInstance) {
  InstanceConfig base;
  base.kronecker = fixtures::small_kronecker(10, 8, 107);
  base.workdir = dir_ + "/cmp";
  InstanceConfig offloaded = base;
  offloaded.offload_edge_list = true;

  Graph500Instance a{base, pool_};
  Graph500Instance b{offloaded, pool_};
  const Vertex root = a.select_roots(1, 1)[0];
  const BfsResult ra = a.run_bfs(root, BfsConfig{});
  const BfsResult rb = b.run_bfs(root, BfsConfig{});
  EXPECT_EQ(ra.level, rb.level);
  EXPECT_EQ(ra.teps_edge_count, rb.teps_edge_count);
}

TEST_F(StreamConstructionTest, EdgeListAccessorGuarded) {
  InstanceConfig config;
  config.kronecker = fixtures::small_kronecker(8, 4, 109);
  config.workdir = dir_ + "/guard";
  config.offload_edge_list = true;
  Graph500Instance instance{config, pool_};
  EXPECT_DEATH((void)instance.edge_list(), "Precondition");
}

}  // namespace
}  // namespace sembfs
