// Ablation: degree-ordered vertex relabeling (Yasui et al., the paper's
// reference [10] — part of the NETAL lineage this work builds on).
//
// Renumbering vertices in decreasing-degree order packs hubs into a dense
// ID prefix: early bottom-up levels then probe a cache-resident corner of
// the frontier bitmap, and hub adjacency becomes more sequential. Expect a
// modest TEPS gain on the skewed Kronecker graph and ~none on the uniform
// graph (no hubs to pack). Note the Graph500 generator deliberately
// *scrambles* vertex IDs — this ablation shows what NETAL wins back.
#include <cstdio>

#include "bench_common.hpp"
#include "graph/relabel.hpp"
#include "graph/uniform.hpp"

using namespace sembfs;
using namespace sembfs::bench;

namespace {

double hybrid_median_teps(const EdgeList& edges, ThreadPool& pool,
                          int roots, std::size_t numa_nodes) {
  const VertexPartition partition{edges.vertex_count(), numa_nodes};
  const ForwardGraph forward =
      ForwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  const BackwardGraph backward =
      BackwardGraph::build(edges, partition, CsrBuildOptions{}, pool);
  GraphStorage storage;
  storage.forward = &forward;
  storage.backward = &backward;
  HybridBfsRunner runner{
      storage, NumaTopology::with_total_threads(numa_nodes, pool.size()),
      pool};

  Vertex root = 0;
  while (backward.neighbors(root).empty()) ++root;
  BfsConfig config;
  config.policy.alpha = 1e3;
  config.policy.beta = 1e4;
  std::vector<double> teps;
  for (int i = 0; i < roots; ++i)
    teps.push_back(runner.run(root, config).teps);
  return compute_stats(std::move(teps)).median;
}

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::resolve();
  print_header(config,
               "Ablation — degree-ordered vertex relabeling (NETAL, ref "
               "[10])",
               "hub-packing recovers locality the Graph500 ID scramble "
               "destroys; uniform graphs gain ~nothing");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};
  const auto nodes = static_cast<std::size_t>(config.env.numa_nodes);

  AsciiTable table({"workload", "scrambled IDs", "degree-ordered IDs",
                    "gain"});
  const auto run_pair = [&](const char* name, const EdgeList& edges) {
    const double plain =
        hybrid_median_teps(edges, pool, config.env.roots, nodes);
    const Relabeling map = degree_order_relabeling(edges, pool);
    const EdgeList renamed = apply_relabeling(edges, map);
    const double ordered =
        hybrid_median_teps(renamed, pool, config.env.roots, nodes);
    table.add_row({name, format_teps(plain), format_teps(ordered),
                   format_fixed((ordered / plain - 1.0) * 100.0, 1) + "%"});
  };

  KroneckerParams kron;
  kron.scale = config.env.scale;
  kron.edge_factor = config.env.edge_factor;
  kron.seed = config.env.seed;
  run_pair("Kronecker (Graph500)", generate_kronecker(kron, pool));

  UniformParams uniform;
  uniform.scale = config.env.scale;
  uniform.edge_factor = config.env.edge_factor;
  uniform.seed = config.env.seed;
  run_pair("uniform (Erdos-Renyi)", generate_uniform(uniform, pool));

  table.print();
  std::printf("\nexpected shape: the Kronecker row gains more than the "
              "uniform row (hub packing only helps when hubs exist).\n");
  return 0;
}
