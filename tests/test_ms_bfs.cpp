// MS-BFS correctness: every lane of a batched multi-source traversal must
// assign exactly the reference levels for its root — batching changes the
// schedule, never the answer.
#include "serve/ms_bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <filesystem>

#include "bfs/reference_bfs.hpp"
#include "graph/hybrid_csr.hpp"
#include "graph_fixtures.hpp"
#include "nvm/device_profile.hpp"
#include "nvm/nvm_device.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace sembfs::serve {
namespace {

/// A serial MS-BFS over the merged view. Each level, every vertex that
/// some lane has not reached reads its inserted in-neighbors, then its base
/// list less tombstoned pairs, ORing in their frontier lanes, and stops
/// once every lane has reached it. Every entry read counts as scanned,
/// tombstoned ones included.
class SerialGather {
 public:
  struct Level {
    std::int64_t claims = 0;
    std::int64_t scanned = 0;
  };

  SerialGather(const BackwardGraph& backward, const DeltaBuffer* delta,
               std::span<const Vertex> roots)
      : backward_(backward),
        delta_(delta),
        live_(roots.size() == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << roots.size()) - 1),
        seen_(static_cast<std::size_t>(backward.vertex_count()), 0),
        frontier_(seen_.size(), 0),
        levels_(roots.size(), std::vector<std::int32_t>(seen_.size(), -1)) {
    for (std::size_t q = 0; q < roots.size(); ++q) {
      const auto root = static_cast<std::size_t>(roots[q]);
      seen_[root] |= std::uint64_t{1} << q;
      frontier_[root] |= std::uint64_t{1} << q;
      levels_[q][root] = 0;
    }
  }

  Level step(std::int32_t level) {
    Level out;
    std::vector<std::uint64_t> next(seen_.size(), 0);
    for (std::size_t v = 0; v < seen_.size(); ++v) {
      const std::uint64_t have = seen_[v];
      if ((have & live_) == live_) continue;
      std::uint64_t gathered = 0;
      const auto gather = [&](Vertex u) {
        ++out.scanned;
        gathered |= frontier_[static_cast<std::size_t>(u)] & live_ & ~have;
        return ((have | gathered) & live_) != live_;
      };
      const auto vertex = static_cast<Vertex>(v);
      bool open = true;
      if (delta_ != nullptr) {
        for (const Vertex u : delta_->inserted(vertex))
          if (!(open = gather(u))) break;
      }
      if (open) {
        for (const Vertex u : backward_.neighbors(vertex)) {
          if (delta_ != nullptr && delta_->edge_removed(vertex, u)) {
            ++out.scanned;
            continue;
          }
          if (!gather(u)) break;
        }
      }
      if (gathered == 0) continue;
      seen_[v] |= gathered;
      next[v] = gathered;
      for (std::size_t q = 0; q < levels_.size(); ++q)
        if ((gathered >> q) & 1U) levels_[q][v] = level;
      out.claims += std::popcount(gathered);
    }
    frontier_.swap(next);
    return out;
  }

  [[nodiscard]] const std::vector<std::int32_t>& levels(
      std::size_t q) const noexcept {
    return levels_[q];
  }

 private:
  const BackwardGraph& backward_;
  const DeltaBuffer* delta_;
  std::uint64_t live_;
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::vector<std::int32_t>> levels_;
};

class MsBfsTest : public ::testing::Test {
 protected:
  void build(const EdgeList& edges, std::size_t numa_nodes = 4) {
    partition_ = VertexPartition{edges.vertex_count(), numa_nodes};
    backward_ = BackwardGraph::build(edges, partition_, CsrBuildOptions{},
                                     pool_);
    full_ = build_csr(edges, CsrBuildOptions{}, pool_);
    storage_ = GraphStorage{};
    storage_.backward = &backward_;
    topology_ = NumaTopology{numa_nodes, 1};
  }

  void expect_lane_matches_reference(const MsBfsBatch& batch,
                                     std::size_t lane) {
    const ReferenceBfsResult ref = reference_bfs(full_, batch.root(lane));
    const std::vector<std::int32_t>& level = batch.levels(lane);
    ASSERT_EQ(level.size(), ref.level.size());
    for (Vertex v = 0; v < static_cast<Vertex>(level.size()); ++v)
      ASSERT_EQ(level[v], ref.level[v])
          << "lane=" << lane << " root=" << batch.root(lane) << " v=" << v;
    EXPECT_EQ(batch.visited(lane), ref.visited) << "lane=" << lane;
  }

  // Parent-tree sanity: the root is its own parent, every reached vertex
  // has a reached parent one level shallower, and the claimed parent edge
  // exists in the graph.
  void expect_valid_parents(const MsBfsBatch& batch, std::size_t lane) {
    const std::vector<Vertex>& parent = batch.parents(lane);
    const std::vector<std::int32_t>& level = batch.levels(lane);
    ASSERT_EQ(parent.size(), level.size());
    for (Vertex v = 0; v < static_cast<Vertex>(level.size()); ++v) {
      if (level[v] < 0) {
        EXPECT_EQ(parent[v], kNoVertex);
        continue;
      }
      if (v == batch.root(lane)) {
        EXPECT_EQ(parent[v], v);
        continue;
      }
      const Vertex p = parent[v];
      ASSERT_NE(p, kNoVertex) << "v=" << v;
      EXPECT_EQ(level[p], level[v] - 1) << "v=" << v;
      bool edge_found = false;
      for (const Vertex u : full_.neighbors(v))
        if (u == p) {
          edge_found = true;
          break;
        }
      EXPECT_TRUE(edge_found) << "no edge " << v << " -- " << p;
    }
  }

  void run_to_completion(MsBfsBatch& batch) {
    while (batch.step()) {
    }
    EXPECT_TRUE(batch.done());
  }

  ThreadPool pool_{4};
  VertexPartition partition_;
  BackwardGraph backward_;
  Csr full_;
  GraphStorage storage_;
  NumaTopology topology_{1, 1};
};

TEST_F(MsBfsTest, SmallGraphAllRootsOneBatch) {
  build(fixtures::small_graph());
  // Every vertex as a root, including the isolated one: 8 lanes.
  std::vector<Vertex> roots;
  for (Vertex v = 0; v < 8; ++v) roots.push_back(v);
  MsBfsBatch batch{storage_, topology_, pool_, roots};
  run_to_completion(batch);
  for (std::size_t q = 0; q < batch.width(); ++q) {
    expect_lane_matches_reference(batch, q);
    expect_valid_parents(batch, q);
  }
}

TEST_F(MsBfsTest, PathGraphDeepLevels) {
  build(fixtures::path_graph(64), 2);
  const std::vector<Vertex> roots{0, 31, 63};
  MsBfsBatch batch{storage_, topology_, pool_, roots};
  run_to_completion(batch);
  EXPECT_EQ(batch.levels_executed(), 63 + 1);  // deepest lane + empty level
  for (std::size_t q = 0; q < batch.width(); ++q)
    expect_lane_matches_reference(batch, q);
}

TEST_F(MsBfsTest, SingleLaneMatchesReference) {
  build(fixtures::star_graph(32));
  const std::vector<Vertex> roots{5};
  MsBfsBatch batch{storage_, topology_, pool_, roots};
  run_to_completion(batch);
  expect_lane_matches_reference(batch, 0);
  expect_valid_parents(batch, 0);
}

TEST_F(MsBfsTest, DuplicateRootsProduceIdenticalLanes) {
  build(fixtures::complete_graph(16));
  const std::vector<Vertex> roots{3, 3, 7};
  MsBfsBatch batch{storage_, topology_, pool_, roots};
  run_to_completion(batch);
  EXPECT_EQ(batch.levels(0), batch.levels(1));
  EXPECT_EQ(batch.visited(0), batch.visited(1));
  for (std::size_t q = 0; q < batch.width(); ++q)
    expect_lane_matches_reference(batch, q);
}

TEST_F(MsBfsTest, FullWidthKroneckerBatch) {
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 7), pool_);
  build(edges);
  std::vector<Vertex> roots;
  for (Vertex v = 0; roots.size() < MsBfsBatch::kMaxBatch; ++v) {
    ASSERT_LT(v, static_cast<Vertex>(full_.source_range().size()));
    if (full_.degree(v) > 0) roots.push_back(v);
  }
  MsBfsBatch batch{storage_, topology_, pool_, roots};
  EXPECT_EQ(batch.width(), MsBfsBatch::kMaxBatch);
  run_to_completion(batch);
  for (std::size_t q = 0; q < batch.width(); ++q) {
    expect_lane_matches_reference(batch, q);
    expect_valid_parents(batch, q);
  }
}

TEST_F(MsBfsTest, DegreeZeroMaskLetsTheWordSkipFire) {
  // A star over the vertices not divisible by 4; the rest have degree 0,
  // so every 64-vertex word holds vertices no lane ever covers. Once the
  // lanes cover the star, only the backward graph's degree-0 mask lets a
  // word be skipped.
  EdgeList edges{256};
  for (Vertex v = 2; v < 256; ++v)
    if (v % 4 != 0) edges.add(1, v);
  build(edges);
  const std::vector<Vertex> roots{1, 2, 3, 5};
  obs::metrics().reset();
  obs::set_enabled(true);
  MsBfsBatch batch{storage_, topology_, pool_, roots};
  run_to_completion(batch);
  obs::set_enabled(false);
  EXPECT_GT(obs::metrics().counter("serve.msbfs.words_skipped").value(), 0U);
  for (std::size_t q = 0; q < batch.width(); ++q)
    expect_lane_matches_reference(batch, q);
}

TEST_F(MsBfsTest, DegreeZeroMaskHoldsUnderADelta) {
  // The same star with a delta attached that gives two degree-0 vertices
  // an edge: only those two leave the mask, so the word skip still fires,
  // and every lane reaches them through the inserts.
  EdgeList edges{256};
  for (Vertex v = 2; v < 256; ++v)
    if (v % 4 != 0) edges.add(1, v);
  build(edges);
  const std::vector<EdgeOp> ops{EdgeOp::insert(2, 4), EdgeOp::insert(1, 8)};
  const DeltaBuffer delta = DeltaBuffer::build(
      256, ops, [](Vertex, Vertex) -> std::int64_t { return 0; });
  storage_.delta = &delta;
  EdgeList merged = edges;
  merged.add(2, 4);
  merged.add(1, 8);
  full_ = build_csr(merged, CsrBuildOptions{}, pool_);
  const std::vector<Vertex> roots{1, 2, 3, 5};
  obs::metrics().reset();
  obs::set_enabled(true);
  MsBfsBatch batch{storage_, topology_, pool_, roots};
  run_to_completion(batch);
  obs::set_enabled(false);
  EXPECT_GT(obs::metrics().counter("serve.msbfs.words_skipped").value(), 0U);
  for (std::size_t q = 0; q < batch.width(); ++q) {
    expect_lane_matches_reference(batch, q);
    EXPECT_GE(batch.levels(q)[4], 1);
    EXPECT_GE(batch.levels(q)[8], 1);
  }
}

TEST_F(MsBfsTest, RecordParentsOffLeavesParentsEmpty) {
  build(fixtures::small_graph());
  MsBfsConfig config;
  config.record_parents = false;
  const std::vector<Vertex> roots{0, 1};
  MsBfsBatch batch{storage_, topology_, pool_, roots, config};
  run_to_completion(batch);
  EXPECT_TRUE(batch.parents(0).empty());
  EXPECT_TRUE(batch.parents(1).empty());
  expect_lane_matches_reference(batch, 0);
  expect_lane_matches_reference(batch, 1);
}

TEST_F(MsBfsTest, DeactivatedLaneStopsOthersFinish) {
  build(fixtures::path_graph(32), 2);
  const std::vector<Vertex> roots{0, 31};
  MsBfsBatch batch{storage_, topology_, pool_, roots};
  // Run three levels, then kill lane 0.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(batch.step());
  batch.deactivate(0);
  EXPECT_FALSE(batch.lane_live(0));
  EXPECT_TRUE(batch.lane_live(1));
  run_to_completion(batch);

  // Lane 0 froze at its partial traversal: exactly levels 0..3 assigned.
  const std::vector<std::int32_t>& partial = batch.levels(0);
  for (Vertex v = 0; v < 32; ++v)
    EXPECT_EQ(partial[v], v <= 3 ? v : -1) << "v=" << v;
  EXPECT_EQ(batch.visited(0), 4);
  EXPECT_EQ(batch.depth(0), 3);
  // Lane 1 is a complete, reference-exact traversal.
  expect_lane_matches_reference(batch, 1);
}

TEST_F(MsBfsTest, HybridBackwardMatchesReference) {
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(9, 8, 13), pool_);
  partition_ = VertexPartition{edges.vertex_count(), 2};
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition_, CsrBuildOptions{}, pool_);
  full_ = build_csr(edges, CsrBuildOptions{}, pool_);
  testutil::ScopedTestDir scratch{"msbfs_hybrid"};
  const std::string& dir = scratch.path();
  DeviceProfile profile = DeviceProfile::by_name("pcie_flash");
  profile.time_scale = 0.001;
  auto device = std::make_shared<NvmDevice>(profile);
  HybridBackwardGraph hybrid{backward, 4, device, dir};

  GraphStorage storage;
  storage.backward = &hybrid;
  topology_ = NumaTopology{2, 1};
  const std::vector<Vertex> roots{0, 1, 2, 3};
  MsBfsBatch batch{storage, topology_, pool_, roots};
  run_to_completion(batch);
  for (std::size_t q = 0; q < batch.width(); ++q)
    expect_lane_matches_reference(batch, q);
}

TEST_F(MsBfsTest, ScannedEdgesMatchSerialGather) {
  // Every level of a 13-lane batch, over the DRAM backward graph and a
  // hybrid one with k = 1, with and without a delta that gives degree-0
  // vertices edges and tombstones hub edges: the level's claims, every
  // lane's levels and scanned_edges() equal the serial gather's. 3 nodes
  // put the partition boundaries inside words.
  const EdgeList edges =
      generate_kronecker(fixtures::small_kronecker(10, 8, 11), pool_);
  build(edges, 3);
  const Vertex n = edges.vertex_count();
  std::vector<Vertex> roots;
  for (Vertex v = 0; roots.size() < 13; v += 29) {
    ASSERT_LT(v, n);
    if (full_.degree(v) > 0) roots.push_back(v);
  }

  std::vector<EdgeOp> ops;
  std::vector<Vertex> isolated;
  for (Vertex v = 0; v < n && isolated.size() < 3; ++v)
    if (backward_.degree_zero().test(static_cast<std::size_t>(v)))
      isolated.push_back(v);
  ASSERT_EQ(isolated.size(), 3U);
  ops.push_back(EdgeOp::insert(isolated[0], roots[0]));
  ops.push_back(EdgeOp::insert(isolated[1], isolated[0]));
  ops.push_back(EdgeOp::insert(isolated[2], roots[5]));
  for (Vertex v = 1; v < n; v += 97) {
    if (backward_.neighbors(v).size() < 2) continue;
    ops.push_back(
        EdgeOp::remove(v, backward_.hubs()[static_cast<std::size_t>(v)]));
  }
  ops.push_back(EdgeOp::insert(roots[1], roots[2]));
  const DeltaBuffer delta =
      DeltaBuffer::build(n, ops, [&](Vertex u, Vertex w) -> std::int64_t {
        const std::span<const Vertex> adj = backward_.neighbors(u);
        return std::count(adj.begin(), adj.end(), w);
      });
  ASSERT_TRUE(delta.has_deletes());

  testutil::ScopedTestDir scratch{"msbfs_serial"};
  DeviceProfile profile = DeviceProfile::by_name("pcie_flash");
  profile.time_scale = 0.001;
  auto device = std::make_shared<NvmDevice>(profile);
  HybridBackwardGraph hybrid{backward_, 1, device, scratch.path()};

  const std::array<const DeltaBuffer*, 2> deltas{nullptr, &delta};
  for (const BackwardStorage side :
       {BackwardStorage{&backward_}, BackwardStorage{&hybrid}}) {
    for (const DeltaBuffer* attached_delta : deltas) {
      SCOPED_TRACE(::testing::Message()
                   << (side.index() == 1 ? "dram" : "hybrid k=1")
                   << (attached_delta != nullptr ? " with delta" : ""));
      GraphStorage storage;
      storage.backward = side;
      storage.delta = attached_delta;
      MsBfsBatch batch{storage, topology_, pool_, roots};
      SerialGather serial{backward_, attached_delta, roots};
      const auto visited = [&] {
        std::int64_t total = 0;
        for (std::size_t q = 0; q < batch.width(); ++q)
          total += batch.visited(q);
        return total;
      };
      for (std::int32_t level = 1; !batch.done(); ++level) {
        const std::int64_t visited_before = visited();
        const std::int64_t scanned_before = batch.scanned_edges();
        batch.step();
        const SerialGather::Level expected = serial.step(level);
        EXPECT_EQ(visited() - visited_before, expected.claims)
            << "level " << level;
        EXPECT_EQ(batch.scanned_edges() - scanned_before, expected.scanned)
            << "level " << level;
      }
      EXPECT_GT(batch.levels_executed(), 3);
      for (std::size_t q = 0; q < batch.width(); ++q)
        EXPECT_EQ(batch.levels(q), serial.levels(q)) << "lane " << q;
    }
  }
}

}  // namespace
}  // namespace sembfs::serve
