// Extension: compressed on-NVM adjacency chunks (ROADMAP item 4).
//
// The paper measures ~8 device bytes per traversed edge on the semi-external
// top-down path (one raw Vertex per neighbor, plus index traffic). The
// varint chunk format delta/zigzag-packs each 4 KiB value chunk at offload
// time, so the same BFS moves fewer device bytes per edge. This sweep runs
// the identical workload under both formats on both NVM device models and
// reports the before/after bytes-per-edge, avgrq-sz, and on-device
// footprint — the acceptance target is a >= 2x bytes-per-edge reduction.
//
// The sweep runs the aggregated top-down reads through a ChunkCache,
// because compression trades in whole-chunk currency: a read fetches the
// blob span covering its logical range and CRC-verifies every blob, so the
// saving lands where reads already move chunk-sized ranges (cache fills
// decode each chunk exactly once, then hits serve decoded DRAM). A
// per-vertex chunked read issues partial-chunk requests the raw format
// serves byte-exact, and there whole-blob fetching can *inflate* traffic
// for sub-chunk adjacency runs; see the trade-off note in docs/DESIGN.md.
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "obs/metrics.hpp"

using namespace sembfs;
using namespace sembfs::bench;

int main() {
  BenchConfig config = BenchConfig::resolve();
  print_header(config,
               "Extension — compressed adjacency chunks: NVM bytes/edge, "
               "request size, and footprint, raw vs varint",
               "not in the paper; its Section VI measures ~8 B of device "
               "traffic per neighbor (raw 64-bit values), which delta/varint "
               "chunk packing cuts by the graph's delta entropy");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};
  obs::metrics().reset();
  obs::set_enabled(true);

  AsciiTable table({"scenario", "format", "nvm bytes", "ratio",
                    "bytes/edge", "avgrq-sz", "TEPS"});
  CsvWriter csv({"scenario", "format", "nvm_bytes", "nvm_raw_bytes",
                 "compression_ratio", "bytes_per_edge", "avgrq_sz",
                 "median_teps"});

  // bytes/edge per scenario, raw first then varint, for the closing summary.
  std::map<std::string, std::vector<double>> bytes_per_edge;
  for (const Scenario& base :
       {Scenario::dram_pcie_flash(), Scenario::dram_ssd()}) {
    for (const ChunkFormat format : {ChunkFormat::kRaw, ChunkFormat::kVarint}) {
      InstanceConfig ic;
      ic.kronecker.scale = config.env.scale;
      ic.kronecker.edge_factor = config.env.edge_factor;
      ic.kronecker.seed = config.env.seed;
      ic.scenario = base;
      ic.scenario.time_scale = config.time_scale;
      ic.numa_nodes = static_cast<std::size_t>(config.env.numa_nodes);
      ic.workdir = config.env.workdir;
      ic.chunk_format = format;
      Graph500Instance instance{ic, pool};

      BfsConfig bfs;
      bfs.mode = BfsMode::TopDownOnly;  // every level reads the NVM side
      bfs.chunk_cache_bytes = 2 << 20;  // fills move whole chunks; decode
                                        // happens once per fill
      const BenchmarkRun run = run_graph500_bfs_phase(
          instance, bfs, config.env.roots, /*validate=*/false, 0xbf5);

      const double per_edge = run.nvm_io.bytes_per_edge(run.traversed_edges);
      const double ratio =
          run.graph_nvm_bytes > 0
              ? static_cast<double>(run.graph_nvm_raw_bytes) /
                    static_cast<double>(run.graph_nvm_bytes)
              : 1.0;
      table.add_row({base.name, std::string(to_string(format)),
                     format_bytes(run.graph_nvm_bytes),
                     format_fixed(ratio, 2), format_fixed(per_edge, 2),
                     format_fixed(run.nvm_io.avg_request_sectors, 2),
                     format_teps(run.output.score())});
      csv.add_row({base.name, std::string(to_string(format)),
                   std::to_string(run.graph_nvm_bytes),
                   std::to_string(run.graph_nvm_raw_bytes),
                   format_fixed(ratio, 3), format_fixed(per_edge, 3),
                   format_fixed(run.nvm_io.avg_request_sectors, 3),
                   format_fixed(run.output.score(), 0)});
      bytes_per_edge[base.name].push_back(per_edge);
    }
    table.add_separator();
  }
  table.print();

  for (const auto& [name, series] : bytes_per_edge) {
    if (series.size() == 2 && series[1] > 0.0)
      std::printf("%s bytes/edge reduction: %.2fx (%.2f -> %.2f)\n",
                  name.c_str(), series[0] / series[1], series[0], series[1]);
  }
  std::printf(
      "\nexpected shape: identical BFS (same roots, same request *count* "
      "pattern) with the varint rows moving >= 2x fewer device bytes per "
      "traversed edge; avgrq-sz drops with it because each logical 4 KiB "
      "chunk travels as a smaller encoded blob.\n");

  maybe_write_csv(config, "extension_compression", csv);
  return 0;
}
