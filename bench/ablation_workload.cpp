// Workload ablation: how much of the hybrid BFS advantage is the
// power-law structure of Kronecker graphs?
//
// The bottom-up direction wins because skewed graphs put hubs in almost
// every adjacency list — the early exit fires after a couple of probes. On
// a uniform (Erdos-Renyi) graph with the same vertex/edge counts there are
// no hubs, so expect: (a) the hybrid-over-top-down speedup shrinks, and
// (b) the best alpha shifts toward later switching. This bounds the
// paper's technique to its intended domain (the Graph500 / social-network
// family) — a scope statement the paper itself does not measure.
#include <cstdio>

#include "bench_common.hpp"
#include "graph/uniform.hpp"

using namespace sembfs;
using namespace sembfs::bench;

namespace {

struct WorkloadResult {
  double hybrid_teps = 0.0;
  double top_down_teps = 0.0;
  double bottom_up_teps = 0.0;
  std::int64_t bu_scanned = 0;
  std::int64_t td_scanned = 0;
};

WorkloadResult measure(const EdgeList& edges, ThreadPool& pool, int roots,
                       std::size_t numa_nodes) {
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

  const auto median_for = [&](BfsMode mode, WorkloadResult& out) {
    BfsConfig config;
    config.mode = mode;
    config.policy.alpha = 1e4;
    config.policy.beta = 1e5;
    std::vector<double> teps;
    for (int i = 0; i < roots; ++i) {
      const BfsResult r = runner.run(root, config);
      teps.push_back(r.teps);
      if (mode == BfsMode::Hybrid) {
        out.bu_scanned += r.scanned_edges_bottom_up;
        out.td_scanned += r.scanned_edges_top_down;
      }
    }
    return compute_stats(std::move(teps)).median;
  };

  WorkloadResult result;
  result.hybrid_teps = median_for(BfsMode::Hybrid, result);
  result.top_down_teps = median_for(BfsMode::TopDownOnly, result);
  result.bottom_up_teps = median_for(BfsMode::BottomUpOnly, result);
  return result;
}

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::resolve();
  print_header(config,
               "Ablation — Kronecker (power law) vs uniform workload",
               "the hybrid's advantage is a property of skew; uniform "
               "graphs shrink it (scope boundary of the technique)");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};
  const auto nodes = static_cast<std::size_t>(config.env.numa_nodes);

  KroneckerParams kron;
  kron.scale = config.env.scale;
  kron.edge_factor = config.env.edge_factor;
  kron.seed = config.env.seed;
  UniformParams uniform;
  uniform.scale = config.env.scale;
  uniform.edge_factor = config.env.edge_factor;
  uniform.seed = config.env.seed;

  const WorkloadResult k =
      measure(generate_kronecker(kron, pool), pool, config.env.roots, nodes);
  const WorkloadResult u =
      measure(generate_uniform(uniform, pool), pool, config.env.roots, nodes);

  AsciiTable table({"workload", "hybrid", "top-down only", "bottom-up only",
                    "hybrid / top-down"});
  const auto row = [&](const char* name, const WorkloadResult& r) {
    table.add_row({name, format_teps(r.hybrid_teps),
                   format_teps(r.top_down_teps),
                   format_teps(r.bottom_up_teps),
                   format_fixed(r.hybrid_teps / r.top_down_teps, 2) + "x"});
  };
  row("Kronecker (Graph500)", k);
  row("uniform (Erdos-Renyi)", u);
  table.print();

  std::printf("\nexpected shape: the hybrid/top-down ratio is larger on the "
              "Kronecker graph than on the uniform graph.\n");
  return 0;
}
