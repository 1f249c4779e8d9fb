// End-to-end property sweep: EVERY configuration the library exposes must
// produce a BFS tree that passes the full Graph500 validation — scenarios x
// modes x policies x I/O options, on multiple graphs. This is the
// integration net under all the unit tests.
#include <gtest/gtest.h>

#include <filesystem>

#include "graph500/instance.hpp"
#include "graph_fixtures.hpp"

namespace sembfs {
namespace {

struct SweepCase {
  const char* scenario;
  BfsMode mode;
  PolicyKind policy;
  double alpha;
  double beta;
  // Name tag only: the cell once set BfsConfig::aggregate_io. Every
  // semi-external top-down level aggregates its reads now, so both values
  // run one path; the tag keeps each cell's test ID ("_agg1") stable.
  bool was_aggregated;
  std::int64_t backward_dram_edges;
  bool offload_edge_list;

  friend std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
    return os << c.scenario << "_mode" << static_cast<int>(c.mode)
              << "_policy" << static_cast<int>(c.policy) << "_a" << c.alpha
              << "_agg" << c.was_aggregated << "_bwd"
              << c.backward_dram_edges << "_eloff" << c.offload_edge_list;
  }
};

class ValidationSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ValidationSweep, EveryConfigurationValidates) {
  const SweepCase c = GetParam();
  ThreadPool pool{4};

  InstanceConfig config;
  config.kronecker = fixtures::small_kronecker(10, 8, 777);
  config.scenario = Scenario::by_name(c.scenario);
  config.scenario.time_scale = 0.001;
  config.scenario.backward_dram_edges = c.backward_dram_edges;
  config.offload_edge_list = c.offload_edge_list;
  // Unique per test: ctest runs every case as its own process, and a
  // shared directory lets one process truncate files another is reading.
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c2 : name)
    if (c2 == '/') c2 = '_';
  config.workdir = ::testing::TempDir() + "/sembfs_sweep_" + name;
  std::filesystem::remove_all(config.workdir);
  Graph500Instance instance{config, pool};

  BfsConfig bfs;
  bfs.mode = c.mode;
  bfs.policy.kind = c.policy;
  bfs.policy.alpha = c.alpha;
  bfs.policy.beta = c.beta;

  for (const Vertex root : instance.select_roots(3, 99)) {
    const BfsResult result = instance.run_bfs(root, bfs);
    const ValidationResult v = instance.validate(result);
    ASSERT_TRUE(v.ok) << "root " << root << ": " << v.error;
    ASSERT_EQ(result.visited, v.reached);
  }
  std::filesystem::remove_all(config.workdir);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ValidationSweep,
    ::testing::Values(
        // Scenario coverage at the paper's default rule.
        SweepCase{"dram", BfsMode::Hybrid, PolicyKind::FrontierRatio, 1e4,
                  1e5, false, -1, false},
        SweepCase{"pcie_flash", BfsMode::Hybrid, PolicyKind::FrontierRatio,
                  1e4, 1e5, false, -1, false},
        SweepCase{"ssd", BfsMode::Hybrid, PolicyKind::FrontierRatio, 1e4,
                  1e5, false, -1, false},
        // Forced directions on the offloaded path.
        SweepCase{"pcie_flash", BfsMode::TopDownOnly,
                  PolicyKind::FrontierRatio, 1e4, 1e5, false, -1, false},
        SweepCase{"pcie_flash", BfsMode::BottomUpOnly,
                  PolicyKind::FrontierRatio, 1e4, 1e5, false, -1, false},
        // Wider top-down phases on the offloaded path (the cells that once
        // opted into aggregated I/O).
        SweepCase{"pcie_flash", BfsMode::Hybrid, PolicyKind::FrontierRatio,
                  100, 100, true, -1, false},
        SweepCase{"ssd", BfsMode::TopDownOnly, PolicyKind::FrontierRatio,
                  1e4, 1e5, true, -1, false},
        // Beamer's policy.
        SweepCase{"dram", BfsMode::Hybrid, PolicyKind::EdgeRatio, 14, 24,
                  false, -1, false},
        SweepCase{"pcie_flash", BfsMode::Hybrid, PolicyKind::EdgeRatio, 14,
                  24, false, -1, false},
        // Backward-graph partial offload.
        SweepCase{"dram", BfsMode::Hybrid, PolicyKind::FrontierRatio, 100,
                  100, false, 2, false},
        SweepCase{"pcie_flash", BfsMode::Hybrid, PolicyKind::FrontierRatio,
                  1e4, 1e5, false, 8, false},
        // NVM-resident edge list (streamed construction + validation).
        SweepCase{"dram", BfsMode::Hybrid, PolicyKind::FrontierRatio, 1e4,
                  1e5, false, -1, true},
        SweepCase{"pcie_flash", BfsMode::Hybrid, PolicyKind::FrontierRatio,
                  1e4, 1e5, false, -1, true},
        // Everything at once.
        SweepCase{"ssd", BfsMode::Hybrid, PolicyKind::FrontierRatio, 100,
                  100, true, 4, true},
        // Extreme switching parameters.
        SweepCase{"dram", BfsMode::Hybrid, PolicyKind::FrontierRatio, 1e9,
                  1e-9, false, -1, false},
        SweepCase{"dram", BfsMode::Hybrid, PolicyKind::FrontierRatio, 1e-9,
                  1e9, false, -1, false}));

}  // namespace
}  // namespace sembfs
