// The tier limit of ExternalForwardGraph: lists of at most t entries stay
// in DRAM, the rest are read from NVM through the same merged, pipelined
// reads as a fully offloaded graph.
#include "graph/external_csr.hpp"

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
  /// A graph keeping lists of at most `tier_limit` entries in DRAM, in a
  /// directory of its own.
  std::unique_ptr<ExternalForwardGraph> make(std::int64_t tier_limit) {
    return std::make_unique<ExternalForwardGraph>(
        forward_, device_, dir_.aux("_t" + std::to_string(tier_limit)),
        /*chunk_bytes=*/4096u, ChunkFormat::kRaw, tier_limit);
  }
  /// TopDownOnly traversal from the first vertex with edges.
  BfsResult top_down(ExternalForwardGraph& graph) {
    GraphStorage storage;
    storage.forward = &graph;
    storage.backward = &backward_;
    HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};
    BfsConfig config;
    config.mode = BfsMode::TopDownOnly;
    return runner.run(first_root(), config);
  }
  Vertex first_root() const {
    Vertex root = 0;
    while (backward_.neighbors(root).empty()) ++root;
    return root;
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
  const auto tiered = make(GetParam());
  std::vector<Vertex> got;
  for (std::size_t k = 0; k < tiered->node_count(); ++k) {
    const Csr& dram = forward_.partition(k);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
      tiered->partition(k).fetch_neighbors(v, got);
      const auto adj = dram.neighbors(v);
      std::multiset<Vertex> got_set(got.begin(), got.end());
      std::multiset<Vertex> expected(adj.begin(), adj.end());
      ASSERT_EQ(got_set, expected) << "node " << k << " v " << v;
      ASSERT_EQ(tiered->partition(k).degree(v), dram.degree(v))
          << "node " << k << " v " << v;
    }
  }
}

TEST_P(TieredForwardTest, RoutingObeysThreshold) {
  // Lists of at most t entries are held in DRAM. A limit of 0 is the
  // untiered layout: every list, empty ones included, has its index entry
  // on the device.
  const std::int64_t limit = GetParam();
  const auto tiered = make(limit);
  for (std::size_t k = 0; k < tiered->node_count(); ++k) {
    const Csr& dram = forward_.partition(k);
    for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
      EXPECT_EQ(tiered->partition(k).in_dram(v),
                limit > 0 && dram.degree(v) <= limit)
          << "node " << k << " v " << v;
    }
  }
}

TEST_P(TieredForwardTest, DramFetchesIssueNoRequests) {
  const auto tiered = make(GetParam());
  device_->stats().reset();
  std::vector<Vertex> got;
  std::uint64_t reported = 0;
  for (std::size_t k = 0; k < tiered->node_count(); ++k)
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      if (tiered->partition(k).in_dram(v)) {
        reported += tiered->partition(k).fetch_neighbors(v, got);
        EXPECT_EQ(tiered->partition(k).degree(v),
                  static_cast<std::int64_t>(got.size()));
      }
  EXPECT_EQ(reported, 0u);
  EXPECT_EQ(device_->stats().request_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TieredForwardTest,
                         ::testing::Values(0, 1, 4, 16, 1 << 20));

TEST_F(TieredForwardTest, ThresholdZeroIsFullyExternal) {
  const auto tiered = make(0);
  const auto external = std::make_unique<ExternalForwardGraph>(
      forward_, device_, dir_.aux("_ext"));
  EXPECT_EQ(tiered->dram_byte_size(), 0u);
  EXPECT_EQ(tiered->nvm_byte_size(), external->nvm_byte_size());
  for (std::size_t k = 0; k < tiered->node_count(); ++k)
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      ASSERT_FALSE(tiered->partition(k).in_dram(v));
}

TEST_F(TieredForwardTest, HugeThresholdKeepsEverythingInDram) {
  const auto tiered = make(1 << 20);
  EXPECT_EQ(tiered->nvm_byte_size(),
            // the device still stores an (all-empty) index entry per source
            tiered->node_count() *
                (static_cast<std::uint64_t>(edges_.vertex_count()) + 1) * 8);
  device_->stats().reset();
  std::vector<Vertex> got;
  for (std::size_t k = 0; k < tiered->node_count(); ++k)
    for (Vertex v = 0; v < edges_.vertex_count(); ++v)
      tiered->partition(k).fetch_neighbors(v, got);
  EXPECT_EQ(top_down(*tiered).nvm_requests, 0u);
  EXPECT_EQ(device_->stats().request_count(), 0u);
}

TEST_F(TieredForwardTest, LowThresholdMovesMostBytesToNvm) {
  const auto aggressive = make(2);
  const auto lenient = make(64);
  EXPECT_GT(aggressive->nvm_byte_size(), lenient->nvm_byte_size());
  EXPECT_LT(aggressive->dram_byte_size(), lenient->dram_byte_size());
}

TEST_F(TieredForwardTest, TieredBfsMatchesReference) {
  const auto tiered = make(4);
  const Csr full = build_csr(edges_, CsrBuildOptions{}, pool_);
  GraphStorage storage;
  storage.forward = tiered.get();
  storage.backward = &backward_;
  HybridBfsRunner runner{storage, NumaTopology{4, 1}, pool_};

  const Vertex root = first_root();
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
  // Late top-down levels touch degree-1 vertices, which the tier serves
  // from DRAM; the hubs it leaves on the device are read through the same
  // merged reads as the full offload's. So on the same root the tiered
  // traversal issues no more device requests than the full offload.
  const auto tiered = make(4);
  const auto external = make(0);
  const BfsResult tiered_run = top_down(*tiered);
  const BfsResult external_run = top_down(*external);
  ASSERT_EQ(tiered_run.level, external_run.level);
  EXPECT_GT(external_run.nvm_requests, 0u);
  EXPECT_LE(tiered_run.nvm_requests, external_run.nvm_requests);
}

}  // namespace
}  // namespace sembfs
