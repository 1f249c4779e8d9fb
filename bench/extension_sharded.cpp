// Sharded semi-external BFS (ROADMAP item 3: 2D edge partitioning over
// per-shard NVM stacks, compressed frontier exchange).
//
// Three claims this bench demonstrates:
//  1. Capacity — the external CSR is split across shards, so the largest
//     per-shard NVM footprint shrinks ~linearly with the shard count: a
//     SCALE whose block store exceeds one emulated node's budget fits
//     once sharded. Each shard also keeps its block resident in DRAM for
//     the bottom-up sweep ("max shard DRAM"), as the single-node path
//     keeps the backward graph.
//  2. Communication — top-down sends one claim per cut edge while
//     bottom-up only exchanges frontier membership, so the hybrid switch
//     collapses per-level remote bytes (the multi-node analogue of the
//     paper's NVM-request reduction).
//  3. Compression — the varint chunk format shrinks the per-shard device
//     footprint on top of the partitioning.
#include <cstdio>

#include "bench_common.hpp"
#include "shard/sharded_bfs.hpp"

using namespace sembfs;
using namespace sembfs::bench;
using namespace sembfs::shard;

int main() {
  const BenchConfig config = BenchConfig::resolve();
  print_header(config,
               "Extension — sharded semi-external BFS (2D partition)",
               "future work of Section VIII; expected: per-shard NVM "
               "footprint shrinks with shard count and the hybrid switch "
               "collapses per-level remote bytes");

  Scenario scenario = Scenario::by_name("pcie_flash");
  scenario.time_scale = config.time_scale;
  const DeviceProfile profile = scenario.effective_profile();

  const std::size_t shard_counts[] = {4, 8, 16};
  ThreadPool pool{std::max<std::size_t>(
      16, static_cast<std::size_t>(config.env.threads))};

  KroneckerParams params;
  params.scale = config.env.scale;
  params.edge_factor = config.env.edge_factor;
  params.seed = config.env.seed;
  const EdgeList edges = generate_kronecker(params, pool);
  const Vertex root = [&] {
    // Any vertex with edges works; scan for the first.
    std::vector<std::int64_t> degree(
        static_cast<std::size_t>(params.vertex_count()), 0);
    for (const Edge& e : edges.edges()) {
      if (e.u == e.v) continue;
      ++degree[static_cast<std::size_t>(e.u)];
      ++degree[static_cast<std::size_t>(e.v)];
    }
    for (std::size_t v = 0; v < degree.size(); ++v)
      if (degree[v] > 0) return static_cast<Vertex>(v);
    return Vertex{0};
  }();

  ShardedBfsConfig hybrid;
  hybrid.policy.alpha = 16;  // switch at the frontier peak, not level 2
  hybrid.policy.beta = 1e5;

  // TEPS and footprint vs shard count, both chunk formats.
  AsciiTable table({"shards", "grid", "format", "median TEPS",
                    "remote bytes/BFS", "max shard NVM", "max shard DRAM",
                    "total NVM", "depth"});
  for (const ChunkFormat format :
       {ChunkFormat::kRaw, ChunkFormat::kVarint}) {
    for (const std::size_t shards : shard_counts) {
      ShardNodeConfig node_config;
      node_config.format = format;
      const std::string dir = config.env.workdir + "/sharded_bench/" +
                              std::to_string(shards) +
                              (format == ChunkFormat::kRaw ? "r" : "v");
      ShardedBfs bfs{edges, shards, pool, profile, dir, node_config};

      std::vector<double> teps;
      std::uint64_t bytes = 0;
      std::int32_t depth = 0;
      const int roots = std::max(2, config.env.roots / 2);
      for (int i = 0; i < roots; ++i) {
        const ShardedBfsResult r = bfs.run(root, hybrid);
        teps.push_back(r.teps);
        bytes += r.total_remote_bytes;
        depth = r.depth;
      }
      const auto& grid = bfs.grid();
      table.add_row(
          {std::to_string(shards),
           std::to_string(grid.rows()) + "x" + std::to_string(grid.cols()),
           format == ChunkFormat::kRaw ? "raw" : "varint",
           format_teps(compute_stats(std::move(teps)).median),
           format_bytes(bytes / static_cast<std::uint64_t>(roots)),
           format_bytes(bfs.max_shard_nvm_byte_size()),
           format_bytes(bfs.max_shard_dram_byte_size()),
           format_bytes(bfs.nvm_byte_size()),
           std::to_string(depth)});
    }
    table.add_separator();
  }
  table.print();

  // Per-level communication profile of one hybrid run at 4 shards: the
  // claim-byte collapse at the direction switch is the payoff.
  std::printf("\nper-level communication (4 shards, raw, hybrid):\n");
  ShardNodeConfig node_config;
  ShardedBfs bfs{edges, 4, pool, profile,
                 config.env.workdir + "/sharded_bench/levels", node_config};
  const ShardedBfsResult run = bfs.run(root, hybrid);
  AsciiTable levels({"level", "direction", "frontier", "claimed",
                     "frontier B", "membership B", "claim B", "total B"});
  for (const ShardLevelStats& ls : run.levels) {
    levels.add_row({std::to_string(ls.level), direction_name(ls.direction),
                    std::to_string(ls.frontier_vertices),
                    std::to_string(ls.claimed_vertices),
                    format_bytes(ls.frontier_bytes),
                    format_bytes(ls.membership_bytes),
                    format_bytes(ls.claim_bytes),
                    format_bytes(ls.remote_bytes)});
  }
  levels.print();

  if (!config.csv_dir.empty()) {
    CsvWriter csv({"level", "direction", "frontier", "claimed",
                   "frontier_bytes", "membership_bytes", "claim_bytes",
                   "remote_bytes"});
    for (const ShardLevelStats& ls : run.levels)
      csv.add_row({std::to_string(ls.level),
                   direction_name(ls.direction),
                   std::to_string(ls.frontier_vertices),
                   std::to_string(ls.claimed_vertices),
                   std::to_string(ls.frontier_bytes),
                   std::to_string(ls.membership_bytes),
                   std::to_string(ls.claim_bytes),
                   std::to_string(ls.remote_bytes)});
    maybe_write_csv(config, "extension_sharded", csv);
  }
  return 0;
}
