// Social-network analysis — the workload class the paper's introduction
// motivates ("a friend network ... with over 900 million vertices and over
// 100 billion edges"). Generates a Kronecker social graph, optionally
// offloads the forward graph to a simulated NVM device, and runs the
// BFS-powered analyses an analyst would: connected components, degree
// structure, hop-distance distribution and effective diameter.
//
//   ./social_network [--scale 18] [--scenario dram|pcie_flash|ssd]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analytics/distances.hpp"
#include "engine/components_program.hpp"
#include "engine/program_session.hpp"
#include "graph/degree.hpp"
#include "graph500/instance.hpp"
#include "util/format.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace sembfs;

int main(int argc, char** argv) {
  OptionParser options{"social_network — BFS-powered analysis of a "
                       "Kronecker social graph"};
  options.add_int("scale", 18, "log2 of the vertex count");
  options.add_int("edge-factor", 16, "edges per vertex");
  options.add_string("scenario", "dram",
                     "storage scenario: dram | pcie_flash | ssd");
  options.add_int("distance-samples", 8, "BFS sources for the histogram");
  options.add_int("threads", 0, "worker threads (0 = hardware)");
  options.add_int("seed", 20140519, "generator seed");
  options.add_string("workdir", "/tmp/sembfs", "directory for NVM files");
  if (!options.parse(argc, argv)) return options.help_requested() ? 0 : 1;

  ThreadPool& pool =
      default_pool(static_cast<std::size_t>(options.get_int("threads")));

  InstanceConfig config;
  config.kronecker.scale = static_cast<int>(options.get_int("scale"));
  config.kronecker.edge_factor =
      static_cast<int>(options.get_int("edge-factor"));
  config.kronecker.seed = static_cast<std::uint64_t>(options.get_int("seed"));
  config.scenario = Scenario::by_name(options.get_string("scenario"));
  config.workdir = options.get_string("workdir");
  Graph500Instance instance{config, pool};

  std::printf("network: %s people, %s friendships (%s)\n",
              format_count(static_cast<std::uint64_t>(instance.vertex_count()))
                  .c_str(),
              format_count(instance.edge_list().edge_count()).c_str(),
              config.scenario.describe().c_str());

  // 1. Who is even connected? (components by min-label propagation on the
  //    vertex-program engine, over the instance's own graph storage.)
  engine::ComponentsProgram components;
  const BfsConfig engine_config;
  engine::ProgramSession session{components, instance.storage(),
                                 instance.topology(), pool, engine_config};
  session.run();
  std::vector<std::int64_t> sizes(
      static_cast<std::size_t>(instance.vertex_count()), 0);
  for (const Vertex label : components.labels())
    ++sizes[static_cast<std::size_t>(label)];
  std::int64_t component_count = 0;
  std::int64_t largest_size = 0;
  std::int64_t isolated_count = 0;
  for (const std::int64_t size : sizes) {
    if (size == 0) continue;
    ++component_count;
    largest_size = std::max(largest_size, size);
    if (size == 1) ++isolated_count;
  }
  std::printf(
      "\ncomponents: %s total; giant component %s vertices (%.1f%%); "
      "%s isolated accounts\n",
      format_count(static_cast<std::uint64_t>(component_count)).c_str(),
      format_count(static_cast<std::uint64_t>(largest_size)).c_str(),
      100.0 * static_cast<double>(largest_size) /
          static_cast<double>(instance.vertex_count()),
      format_count(static_cast<std::uint64_t>(isolated_count)).c_str());

  // 2. Degree structure (hubs vs long tail).
  const DegreeStats degrees = compute_degree_stats(instance.full_csr());
  std::printf(
      "degrees: median %lld, mean %.1f, max %s (hub); %.1f%% of accounts "
      "have no friends\n",
      static_cast<long long>(degrees.median_degree), degrees.mean_degree,
      format_count(static_cast<std::uint64_t>(degrees.max_degree)).c_str(),
      100.0 * static_cast<double>(degrees.isolated_count) /
          static_cast<double>(degrees.vertex_count));

  // 3. How far apart are people? (hop distances via hybrid BFS.)
  const auto sources = instance.select_roots(
      static_cast<int>(options.get_int("distance-samples")),
      config.kronecker.seed);
  GraphStorage storage = instance.storage();
  HybridBfsRunner runner{storage, instance.topology(), pool};
  const DistanceStats distances = sample_distances(runner, sources);

  std::printf("\nhop distances (%lld sampled sources, %s reachable pairs):\n",
              static_cast<long long>(distances.sampled_sources),
              format_count(static_cast<std::uint64_t>(
                               distances.reachable_pairs))
                  .c_str());
  AsciiTable table({"hops", "pairs", "share"});
  for (std::size_t d = 0; d < distances.histogram.size(); ++d) {
    table.add_row(
        {std::to_string(d),
         format_count(static_cast<std::uint64_t>(distances.histogram[d])),
         format_fixed(100.0 * static_cast<double>(distances.histogram[d]) /
                          static_cast<double>(distances.reachable_pairs),
                      2) +
             "%"});
  }
  table.print();
  std::printf(
      "mean distance %.2f, median %d, effective diameter (90%%) %d, max "
      "observed %d — the small world the hybrid BFS exploits.\n",
      distances.mean_distance, distances.median_distance,
      distances.effective_diameter, distances.max_observed);

  if (NvmDevice* device = instance.nvm_device()) {
    const IoStatsSnapshot io = device->stats().snapshot();
    std::printf(
        "\nNVM device during the analysis: %s requests, avgqu-sz %.2f, "
        "avgrq-sz %.1f sectors\n",
        format_count(io.requests).c_str(), io.avg_queue_length,
        io.avg_request_sectors);
  }
  return 0;
}
