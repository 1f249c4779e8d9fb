#include "graph/hybrid_csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "graph_fixtures.hpp"

namespace sembfs {
namespace {

class HybridCsrTest : public ::testing::TestWithParam<std::int64_t> {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs every case as its own process, and a
    // shared directory lets one process truncate files another is reading.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name)
      if (c == '/') c = '_';
    dir_ = testing::TempDir() + "/sembfs_hybrid_" + name;
    std::filesystem::remove_all(dir_);
    edges_ = generate_kronecker(fixtures::small_kronecker(9, 8, 7), pool_);
    partition_ = VertexPartition{edges_.vertex_count(), 4};
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    device_ = std::make_shared<NvmDevice>(DeviceProfile::dram());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  HybridBackwardGraph make(std::int64_t k) {
    return HybridBackwardGraph{backward_, k, device_, dir_};
  }

  ThreadPool pool_{4};
  std::string dir_;
  EdgeList edges_;
  VertexPartition partition_;
  BackwardGraph backward_;
  std::shared_ptr<NvmDevice> device_;
};

TEST_P(HybridCsrTest, FullVisitReproducesAdjacencyInOrder) {
  HybridBackwardGraph hybrid = make(GetParam());
  std::vector<Vertex> scratch;
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    const std::size_t node = partition_.node_of(v);
    std::vector<Vertex> visited;
    hybrid.partition(node).visit_neighbors(v, scratch, [&](Vertex w) {
      visited.push_back(w);
      return true;
    });
    const auto expected = backward_.neighbors(v);
    ASSERT_EQ(visited.size(), expected.size()) << "v=" << v;
    for (std::size_t i = 0; i < visited.size(); ++i)
      ASSERT_EQ(visited[i], expected[i]) << "v=" << v << " i=" << i;
  }
}

TEST_F(HybridCsrTest, InheritsDegreeZeroMask) {
  HybridBackwardGraph hybrid = make(2);
  ASSERT_GT(backward_.degree_zero().count(), 0U);
  EXPECT_TRUE(std::ranges::equal(hybrid.degree_zero().words(),
                                 backward_.degree_zero().words()));
}

TEST_P(HybridCsrTest, DegreeNeverTouchesDevice) {
  HybridBackwardGraph hybrid = make(GetParam());
  device_->stats().reset();
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    ASSERT_EQ(hybrid.degree(v),
              static_cast<std::int64_t>(backward_.neighbors(v).size()));
  EXPECT_EQ(device_->stats().request_count(), 0u);
}

TEST_P(HybridCsrTest, EntrySplitPreservesTotal) {
  HybridBackwardGraph hybrid = make(GetParam());
  std::int64_t dram = 0;
  std::int64_t nvm = 0;
  for (std::size_t k = 0; k < hybrid.node_count(); ++k) {
    dram += hybrid.partition(k).dram_entry_count();
    nvm += hybrid.partition(k).nvm_entry_count();
  }
  EXPECT_EQ(dram + nvm, backward_.entry_count());
  // Per-vertex DRAM cap respected.
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    const auto& part = hybrid.partition(partition_.node_of(v));
    const std::int64_t deg =
        static_cast<std::int64_t>(backward_.neighbors(v).size());
    EXPECT_EQ(part.degree(v), deg);
  }
}

TEST_P(HybridCsrTest, HubIsDramPrefixHead) {
  // The head of the DRAM prefix is the DRAM graph's hub; with k = 0 the
  // prefix is empty and no vertex has one.
  const std::int64_t k = GetParam();
  HybridBackwardGraph hybrid = make(k);
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    const Vertex expected =
        k == 0 ? kNoVertex : backward_.hubs()[static_cast<std::size_t>(v)];
    ASSERT_EQ(hybrid.partition(partition_.node_of(v)).hub(v), expected)
        << "v=" << v;
  }
}

TEST_P(HybridCsrTest, VisitFromStartSkipsThatManyEntries) {
  // A start inside the DRAM prefix, at its end, or past it into the NVM
  // tail continues the list in storage order.
  HybridBackwardGraph hybrid = make(GetParam());
  std::vector<Vertex> scratch;
  for (const std::int64_t start : {1, 2, 3}) {
    for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
      std::vector<Vertex> visited;
      hybrid.partition(partition_.node_of(v))
          .visit_neighbors(
              v, scratch,
              [&](Vertex w) {
                visited.push_back(w);
                return true;
              },
              start);
      const auto adj = backward_.neighbors(v);
      const auto skip = std::min<std::size_t>(adj.size(),
                                              static_cast<std::size_t>(start));
      ASSERT_TRUE(std::ranges::equal(visited, adj.subspan(skip)))
          << "v=" << v << " start=" << start;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DramCaps, HybridCsrTest,
                         ::testing::Values(0, 1, 2, 8, 32, 1 << 20));

TEST_F(HybridCsrTest, ZeroCapPutsEverythingOnNvm) {
  HybridBackwardGraph hybrid = make(0);
  std::int64_t dram = 0;
  for (std::size_t k = 0; k < hybrid.node_count(); ++k)
    dram += hybrid.partition(k).dram_entry_count();
  EXPECT_EQ(dram, 0);
  EXPECT_EQ(hybrid.nvm_byte_size(),
            static_cast<std::uint64_t>(backward_.entry_count()) *
                sizeof(Vertex));
}

TEST_F(HybridCsrTest, HugeCapKeepsEverythingInDram) {
  HybridBackwardGraph hybrid = make(1 << 20);
  EXPECT_EQ(hybrid.nvm_byte_size(), 0u);
  device_->stats().reset();
  std::vector<Vertex> scratch;
  for (Vertex v = 0; v < edges_.vertex_count(); ++v)
    hybrid.partition(partition_.node_of(v))
        .visit_neighbors(v, scratch, [](Vertex) { return true; });
  EXPECT_EQ(device_->stats().request_count(), 0u);
}

TEST_F(HybridCsrTest, EarlyExitInDramPrefixSkipsNvm) {
  HybridBackwardGraph hybrid = make(2);
  device_->stats().reset();
  hybrid.reset_counters();
  std::vector<Vertex> scratch;
  // Stop at the very first neighbor for every vertex: no NVM traffic.
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    if (backward_.neighbors(v).empty()) continue;
    hybrid.partition(partition_.node_of(v))
        .visit_neighbors(v, scratch, [](Vertex) { return false; });
  }
  EXPECT_EQ(device_->stats().request_count(), 0u);
  EXPECT_EQ(hybrid.nvm_edges_examined(), 0u);
  EXPECT_GT(hybrid.dram_edges_examined(), 0u);
}

TEST_F(HybridCsrTest, CountersTrackTiers) {
  HybridBackwardGraph hybrid = make(2);
  hybrid.reset_counters();
  std::vector<Vertex> scratch;
  std::uint64_t expected_dram = 0;
  std::uint64_t expected_nvm = 0;
  for (Vertex v = 0; v < edges_.vertex_count(); ++v) {
    const auto deg =
        static_cast<std::uint64_t>(backward_.neighbors(v).size());
    expected_dram += std::min<std::uint64_t>(deg, 2);
    expected_nvm += deg > 2 ? deg - 2 : 0;
    hybrid.partition(partition_.node_of(v))
        .visit_neighbors(v, scratch, [](Vertex) { return true; });
  }
  EXPECT_EQ(hybrid.dram_edges_examined(), expected_dram);
  EXPECT_EQ(hybrid.nvm_edges_examined(), expected_nvm);
}

TEST_F(HybridCsrTest, DramSizeCountsDegreeZeroMask) {
  // With every entry in DRAM the DRAM side is the source CSR, a second
  // (all-empty) index per partition for the NVM tail, and the mask.
  const HybridBackwardGraph all = make(1 << 20);
  const auto n = static_cast<std::uint64_t>(edges_.vertex_count());
  const std::uint64_t nvm_index = (n + all.node_count()) * sizeof(std::int64_t);
  EXPECT_EQ(all.dram_byte_size(),
            backward_.byte_size() + nvm_index +
                backward_.degree_zero().word_count() * sizeof(std::uint64_t));
}

TEST_F(HybridCsrTest, DramSizeShrinksAsCapDrops) {
  const HybridBackwardGraph cap32 = make(32);
  const HybridBackwardGraph cap2 = make(2);
  EXPECT_LT(cap2.dram_byte_size(), cap32.dram_byte_size());
  EXPECT_GT(cap2.nvm_byte_size(), cap32.nvm_byte_size());
}

}  // namespace
}  // namespace sembfs
