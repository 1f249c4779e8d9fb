// Streaming Step 2: graphs constructed by streaming the NVM-resident edge
// list must be identical (up to adjacency order) to graphs built from the
// in-memory edge list, and the full offloaded pipeline (edge list on NVM ->
// streamed construction -> BFS -> NVM validation) must pass Graph500
// validation end to end.
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

TEST_F(StreamConstructionTest, FullCsrMatchesInMemoryBuild) {
  const Csr in_memory = build_csr(edges_, CsrBuildOptions{}, pool_);
  const Csr streamed = build_csr_filtered_stream(
      edges_.vertex_count(), stream_, VertexRange{0, edges_.vertex_count()},
      VertexRange{0, edges_.vertex_count()}, CsrBuildOptions{}, pool_);
  expect_same_adjacency(in_memory, streamed);
}

TEST_F(StreamConstructionTest, SortedStreamedBuildIsBitIdentical) {
  CsrBuildOptions options;
  options.sort_neighbors = true;
  const Csr in_memory = build_csr(edges_, options, pool_);
  const Csr streamed = build_csr_filtered_stream(
      edges_.vertex_count(), stream_, VertexRange{0, edges_.vertex_count()},
      VertexRange{0, edges_.vertex_count()}, options, pool_);
  EXPECT_EQ(streamed.index(), in_memory.index());
  EXPECT_EQ(streamed.values(), in_memory.values());
}

TEST_F(StreamConstructionTest, ForwardAndBackwardStreamBuilds) {
  const VertexPartition partition{edges_.vertex_count(), 4};
  const ForwardGraph fg_mem =
      ForwardGraph::build(edges_, partition, CsrBuildOptions{}, pool_);
  const ForwardGraph fg_stream = ForwardGraph::build_stream(
      edges_.vertex_count(), stream_, partition, CsrBuildOptions{}, pool_);
  EXPECT_EQ(fg_stream.entry_count(), fg_mem.entry_count());
  for (std::size_t k = 0; k < 4; ++k)
    expect_same_adjacency(fg_mem.partition(k), fg_stream.partition(k));

  // Backward lists are hub-first by one total order, not in the order a
  // build's parallel scatter wrote them, so the builds agree bit for bit,
  // whatever the pool size.
  const BackwardGraph bg_mem =
      BackwardGraph::build(edges_, partition, CsrBuildOptions{}, pool_);
  const BackwardGraph bg_stream = BackwardGraph::build_stream(
      edges_.vertex_count(), stream_, partition, CsrBuildOptions{}, pool_);
  ThreadPool wide{8};
  const BackwardGraph bg_wide =
      BackwardGraph::build(edges_, partition, CsrBuildOptions{}, wide);
  for (const BackwardGraph* other : {&bg_stream, &bg_wide}) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(other->partition(k).index(), bg_mem.partition(k).index());
      EXPECT_EQ(other->partition(k).values(), bg_mem.partition(k).values());
    }
    EXPECT_TRUE(std::ranges::equal(other->degree_zero().words(),
                                   bg_mem.degree_zero().words()));
    EXPECT_TRUE(std::ranges::equal(other->hubs(), bg_mem.hubs()));
  }
}

TEST_F(StreamConstructionTest, StreamingGeneratesEdgeListDeviceTraffic) {
  device_->stats().reset();
  (void)build_csr_filtered_stream(
      edges_.vertex_count(), stream_, VertexRange{0, edges_.vertex_count()},
      VertexRange{0, edges_.vertex_count()}, CsrBuildOptions{}, pool_);
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

TEST_F(StreamConstructionTest, StreamedDedupeRejected) {
  CsrBuildOptions options;
  options.dedupe = true;
  EXPECT_DEATH(
      (void)build_csr_filtered_stream(edges_.vertex_count(), stream_,
                                      VertexRange{0, edges_.vertex_count()},
                                      VertexRange{0, edges_.vertex_count()},
                                      options, pool_),
      "Precondition");
}

}  // namespace
}  // namespace sembfs
