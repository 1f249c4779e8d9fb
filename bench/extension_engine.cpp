// Extension: whole-graph analytics on the vertex-program engine.
//
// ProgramSession (src/engine) is the level loop every BFS runs on; the
// same loop serves programs the BFS machinery alone could not:
// label-propagation connected components, synchronous PageRank, and
// triangle counting — each timed over the DRAM and semi-external
// (pcie_flash) scenarios through the identical IoScheduler/ChunkCache
// path the paper's BFS uses.
#include <cstdio>

#include "bench_common.hpp"
#include "engine/components_program.hpp"
#include "engine/pagerank_program.hpp"
#include "engine/program_session.hpp"
#include "engine/triangle_program.hpp"

using namespace sembfs;
using namespace sembfs::bench;

namespace {

struct AnalyticsRow {
  double seconds = 0.0;
  std::int32_t supersteps = 0;
  std::uint64_t nvm_requests = 0;
};

AnalyticsRow run_program(engine::VertexProgram& program,
                         Graph500Instance& instance, ThreadPool& pool,
                         const BfsConfig& bfs) {
  engine::ProgramSession session{program, instance.storage(),
                                 instance.topology(), pool, bfs};
  session.run();
  AnalyticsRow row;
  row.seconds = session.seconds();
  row.supersteps = session.supersteps_executed();
  row.nvm_requests = session.nvm_requests();
  return row;
}

}  // namespace

int main() {
  BenchConfig config = BenchConfig::resolve();
  print_header(config, "Extension — vertex-program engine analytics",
               "CC / PageRank / triangle counting run over the same "
               "semi-external storage path as the BFS");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};

  CsvWriter csv({"scenario", "program", "seconds", "supersteps",
                 "ms_per_step", "nvm_requests"});

  for (const Scenario& scenario :
       {Scenario::dram_only(), Scenario::dram_pcie_flash()}) {
    Graph500Instance instance = make_instance(config, scenario, pool);
    const BfsConfig bfs;

    engine::ComponentsProgram cc;
    const AnalyticsRow cc_row = run_program(cc, instance, pool, bfs);
    engine::PageRankProgram pagerank{engine::PageRankOptions{}};
    const AnalyticsRow pr_row = run_program(pagerank, instance, pool, bfs);
    engine::TriangleProgram tc;
    const AnalyticsRow tc_row = run_program(tc, instance, pool, bfs);
    for (const auto& [name, row] :
         {std::pair<const char*, const AnalyticsRow&>{"components", cc_row},
          {"pagerank", pr_row},
          {"triangles", tc_row}}) {
      csv.add_row({scenario.name, name, format_fixed(row.seconds, 4),
                   std::to_string(row.supersteps),
                   format_fixed(row.supersteps > 0
                                    ? row.seconds * 1e3 / row.supersteps
                                    : 0.0,
                                4),
                   std::to_string(row.nvm_requests)});
    }
    std::printf("%s analytics: cc %.3fs/%d steps, pagerank %.3fs/%d iters, "
                "tc %.3fs/%d slices\n",
                scenario.name.c_str(), cc_row.seconds, cc_row.supersteps,
                pr_row.seconds, pr_row.supersteps, tc_row.seconds,
                tc_row.supersteps);
  }

  maybe_write_csv(config, "extension_engine", csv);
  return 0;
}
