#include "graph500/instance.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "bfs/reference_bfs.hpp"
#include "test_util.hpp"

namespace sembfs {
namespace {

class InstanceTest : public ::testing::Test {
 protected:
  InstanceConfig base_config(const Scenario& scenario) {
    InstanceConfig config;
    config.kronecker.scale = 10;
    config.kronecker.edge_factor = 8;
    config.kronecker.seed = 77;
    config.scenario = scenario;
    config.scenario.time_scale = 0.001;  // keep tests fast
    config.numa_nodes = 4;
    config.workdir = workdir();
    return config;
  }
  std::string workdir() const { return dir_.path() + "/work"; }
  testutil::ScopedTestDir dir_{"instance"};
  ThreadPool pool_{4};
};

TEST_F(InstanceTest, DramOnlyKeepsForwardInDram) {
  Graph500Instance inst{base_config(Scenario::dram_only()), pool_};
  EXPECT_NE(inst.forward_dram(), nullptr);
  EXPECT_EQ(inst.external_forward(), nullptr);
  EXPECT_EQ(inst.nvm_device(), nullptr);
  EXPECT_EQ(inst.graph_nvm_bytes(), 0u);
}

TEST_F(InstanceTest, OffloadScenarioReleasesDramForward) {
  Graph500Instance inst{base_config(Scenario::dram_pcie_flash()), pool_};
  EXPECT_EQ(inst.forward_dram(), nullptr);  // DRAM copy released
  EXPECT_NE(inst.external_forward(), nullptr);
  EXPECT_NE(inst.nvm_device(), nullptr);
  EXPECT_GT(inst.graph_nvm_bytes(), 0u);
}

TEST_F(InstanceTest, OffloadReducesDramFootprint) {
  Graph500Instance dram{base_config(Scenario::dram_only()), pool_};
  Graph500Instance flash{base_config(Scenario::dram_pcie_flash()), pool_};
  EXPECT_LT(flash.graph_dram_bytes(), dram.graph_dram_bytes());
  // DRAM saved equals the NVM bytes minus index-duplication bookkeeping;
  // at minimum the forward value arrays moved out.
  EXPECT_GT(dram.graph_dram_bytes() - flash.graph_dram_bytes(),
            dram.graph_dram_bytes() / 3);
}

TEST_F(InstanceTest, AllScenariosProduceIdenticalLevels) {
  Graph500Instance dram{base_config(Scenario::dram_only()), pool_};
  Graph500Instance flash{base_config(Scenario::dram_pcie_flash()), pool_};
  Graph500Instance ssd{base_config(Scenario::dram_ssd()), pool_};

  const Vertex root = dram.select_roots(1, 5)[0];
  const BfsConfig config;
  const BfsResult a = dram.run_bfs(root, config);
  const BfsResult b = flash.run_bfs(root, config);
  const BfsResult c = ssd.run_bfs(root, config);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.level, c.level);
  EXPECT_EQ(a.teps_edge_count, b.teps_edge_count);
}

TEST_F(InstanceTest, BottomUpWorkReplaysAcrossPoolSizes) {
  // Hub-first backward lists follow one total order, not the order the
  // parallel build wrote them in, so a root's bottom-up edge count is a
  // property of the graph: two instances from one seed agree on it for
  // every root, whatever their worker counts.
  ThreadPool wide{8};
  InstanceConfig wide_config = base_config(Scenario::dram_only());
  wide_config.workdir = dir_.path() + "/work8";
  Graph500Instance narrow{base_config(Scenario::dram_only()), pool_};
  Graph500Instance wider{wide_config, wide};
  const BfsConfig config;
  std::int64_t bottom_up_edges = 0;
  for (const Vertex root : narrow.select_roots(16, 3)) {
    const BfsResult a = narrow.run_bfs(root, config);
    const BfsResult b = wider.run_bfs(root, config);
    EXPECT_EQ(a.level, b.level) << "root " << root;
    EXPECT_EQ(a.scanned_edges_bottom_up, b.scanned_edges_bottom_up)
        << "root " << root;
    bottom_up_edges += a.scanned_edges_bottom_up;
  }
  EXPECT_GT(bottom_up_edges, 0);
}

TEST_F(InstanceTest, ValidatePassesOnRealRuns) {
  Graph500Instance inst{base_config(Scenario::dram_pcie_flash()), pool_};
  for (const Vertex root : inst.select_roots(4, 9)) {
    const BfsResult result = inst.run_bfs(root, BfsConfig{});
    const ValidationResult v = inst.validate(result);
    EXPECT_TRUE(v.ok) << "root " << root << ": " << v.error;
  }
}

TEST_F(InstanceTest, SelectRootsDistinctNonzeroDegreeDeterministic) {
  Graph500Instance inst{base_config(Scenario::dram_only()), pool_};
  const std::vector<Vertex> roots = inst.select_roots(16, 123);
  EXPECT_EQ(roots.size(), 16u);
  const std::set<Vertex> unique(roots.begin(), roots.end());
  EXPECT_EQ(unique.size(), roots.size());
  ASSERT_NE(inst.backward(), nullptr);
  for (const Vertex r : roots)
    EXPECT_GT(inst.backward()->neighbors(r).size(), 0u);
  EXPECT_EQ(inst.select_roots(16, 123), roots);       // deterministic
  EXPECT_NE(inst.select_roots(16, 124), roots);       // seed-sensitive
}

TEST_F(InstanceTest, BackwardHybridScenario) {
  Scenario scenario = Scenario::dram_pcie_flash();
  scenario.backward_dram_edges = 4;
  Graph500Instance inst{base_config(scenario), pool_};
  ASSERT_NE(inst.hybrid_backward(), nullptr);
  // The DRAM backward graph is released once the hybrid one is built.
  EXPECT_EQ(inst.backward(), nullptr);

  // Root selection reads degrees, which the hybrid graph answers without
  // the DRAM graph; the trees and TEPS counts match a DRAM instance's.
  Graph500Instance dram{base_config(Scenario::dram_only()), pool_};
  const std::vector<Vertex> roots = inst.select_roots(16, 3);
  EXPECT_EQ(roots, dram.select_roots(16, 3));
  for (const Vertex root : roots) {
    const BfsResult result = inst.run_bfs(root, BfsConfig{});
    const BfsResult expected = dram.run_bfs(root, BfsConfig{});
    EXPECT_EQ(result.level, expected.level) << "root " << root;
    EXPECT_EQ(result.teps_edge_count, expected.teps_edge_count)
        << "root " << root;
    EXPECT_TRUE(inst.validate(result).ok) << "root " << root;
  }
}

TEST_F(InstanceTest, FullCsrMatchesReferenceExpectations) {
  Graph500Instance inst{base_config(Scenario::dram_only()), pool_};
  const Csr& full = inst.full_csr();
  EXPECT_EQ(full.global_vertex_count(), inst.vertex_count());
  // BFS through the instance matches reference through the full CSR.
  const Vertex root = inst.select_roots(1, 1)[0];
  const BfsResult result = inst.run_bfs(root, BfsConfig{});
  const ReferenceBfsResult ref = reference_bfs(full, root);
  EXPECT_EQ(result.level, ref.level);
}

TEST_F(InstanceTest, TimingsRecorded) {
  Graph500Instance inst{base_config(Scenario::dram_only()), pool_};
  EXPECT_GT(inst.generation_seconds(), 0.0);
  EXPECT_GT(inst.construction_seconds(), 0.0);
}

}  // namespace
}  // namespace sembfs
