// Benchmark-step time breakdown across scenarios — the operational view
// behind the paper's Section V flow (Steps 1-4): where does the wall clock
// go when the edge list and forward graph live on NVM? Generation and
// construction are one-time costs the paper amortizes over 64 BFS runs;
// this table makes the amortization argument concrete.
#include <cstdio>

#include "bench_common.hpp"
#include "util/timer.hpp"

using namespace sembfs;
using namespace sembfs::bench;

int main() {
  const BenchConfig config = BenchConfig::resolve();
  print_header(config,
               "Step breakdown — Graph500 Steps 1-4 wall time per scenario",
               "construction is one-time; the paper amortizes it over 64 "
               "BFS iterations");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};

  AsciiTable table({"scenario", "edge list on NVM", "Step1 gen (s)",
                    "Step2 build (s)", "Step3 BFS median (s)",
                    "Step4 validate (s)", "64-run total est. (s)"});

  struct Case {
    Scenario scenario;
    bool offload_edge_list;
  };
  const Case cases[] = {
      {Scenario::dram_only(), false},
      {Scenario::dram_pcie_flash(), false},
      {Scenario::dram_pcie_flash(), true},
      {Scenario::dram_ssd(), true},
  };

  for (const Case& c : cases) {
    InstanceConfig ic;
    ic.kronecker.scale = config.env.scale;
    ic.kronecker.edge_factor = config.env.edge_factor;
    ic.kronecker.seed = config.env.seed;
    ic.scenario = c.scenario;
    ic.scenario.time_scale = config.time_scale;
    ic.numa_nodes = static_cast<std::size_t>(config.env.numa_nodes);
    ic.workdir = config.env.workdir + "/steps";
    ic.offload_edge_list = c.offload_edge_list;
    Graph500Instance instance{ic, pool};

    BfsConfig bfs;
    bfs.policy.alpha = 1e4;
    bfs.policy.beta = 1e5;
    std::vector<double> bfs_seconds;
    double validate_seconds = 0.0;
    const auto roots =
        instance.select_roots(std::max(2, config.env.roots / 2), 0xbf5);
    for (const Vertex root : roots) {
      const BfsResult result = instance.run_bfs(root, bfs);
      bfs_seconds.push_back(result.seconds);
      Timer vt;
      const ValidationResult v = instance.validate(result);
      validate_seconds += vt.seconds();
      if (!v.ok) {
        std::fprintf(stderr, "validation failed: %s\n", v.error.c_str());
        return 1;
      }
    }
    const double bfs_median = compute_stats(bfs_seconds).median;
    const double validate_each =
        validate_seconds / static_cast<double>(roots.size());
    const double total64 = instance.generation_seconds() +
                           instance.construction_seconds() +
                           64.0 * (bfs_median + validate_each);
    table.add_row({c.scenario.name, c.offload_edge_list ? "yes" : "no",
                   format_fixed(instance.generation_seconds(), 3),
                   format_fixed(instance.construction_seconds(), 3),
                   format_fixed(bfs_median, 4),
                   format_fixed(validate_each, 4),
                   format_fixed(total64, 2)});
  }
  table.print();
  std::printf(
      "\nreading: offloading the edge list makes Step 2 slower (it streams "
      "from the device twice per graph) but leaves Step 3 untouched — the "
      "64-iteration total is dominated by BFS+validation either way.\n");
  return 0;
}
