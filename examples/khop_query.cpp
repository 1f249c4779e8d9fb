// k-hop neighborhood queries via the level-stepped engine API (a
// BfsProgram under a ProgramSession): run the hybrid BFS only as deep as
// the question requires ("who is within 3 hops of this account?") and
// stop — on an offloaded graph this also stops paying NVM reads the
// moment the answer is complete.
//
//   ./khop_query --scale 17 --hops 3 [--scenario pcie_flash]
#include <cstdio>

#include "engine/bfs_program.hpp"
#include "engine/program_session.hpp"
#include "graph500/instance.hpp"
#include "util/format.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace sembfs;

int main(int argc, char** argv) {
  OptionParser options{
      "khop_query — bounded-depth BFS with ProgramSession"};
  options.add_int("scale", 17, "log2 of the vertex count");
  options.add_int("edge-factor", 16, "edges per vertex");
  options.add_int("hops", 3, "neighborhood radius");
  options.add_int("sources", 4, "number of query sources");
  options.add_string("scenario", "dram",
                     "storage scenario: dram | pcie_flash | ssd");
  options.add_int("threads", 0, "worker threads (0 = hardware)");
  options.add_int("seed", 4242, "generator seed");
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

  const auto hops = static_cast<std::int32_t>(options.get_int("hops"));
  const auto sources = instance.select_roots(
      static_cast<int>(options.get_int("sources")), config.kronecker.seed);

  std::printf("%d-hop neighborhoods on a SCALE-%d graph (%s):\n\n",
              hops, config.kronecker.scale,
              config.scenario.describe().c_str());

  AsciiTable table({"source", "reached within k hops", "share of graph",
                    "levels run", "NVM requests", "time (ms)"});
  GraphStorage storage = instance.storage();
  BfsStatus status{instance.vertex_count()};
  for (const Vertex source : sources) {
    engine::BfsProgram program{status, source};
    engine::ProgramSession session{program, storage, instance.topology(),
                                   pool, BfsConfig{}};
    for (std::int32_t i = 0; i < hops && session.step(); ++i) {
    }
    const BfsResult result = program.snapshot_result(session);
    table.add_row(
        {std::to_string(source),
         format_count(static_cast<std::uint64_t>(result.visited)),
         format_fixed(100.0 * static_cast<double>(result.visited) /
                          static_cast<double>(instance.vertex_count()),
                      2) +
             "%",
         std::to_string(result.depth),
         format_count(result.nvm_requests),
         format_fixed(result.seconds * 1e3, 2)});
  }
  table.print();
  std::printf(
      "\nThe session stops after %d levels — unreached vertices were never "
      "touched, and on an offloaded graph the forward-graph reads stop "
      "with it.\n",
      hops);
  return 0;
}
