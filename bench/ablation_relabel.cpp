// Ablation: degree-ordered vertex relabeling (Yasui et al., the paper's
// reference [10] — NETAL's kernel-1 layout) against the library's
// hub-first backward lists, which keep the Graph500 vertex IDs.
//
// Renumbering vertices in decreasing-degree order packs hubs into a dense
// ID prefix and gathers the degree-0 vertices at the top IDs. The library
// gets the bottom-up half of that without renumbering: its backward lists
// are ordered by the same total order (degree descending, then ID), so a
// bottom-up search examines the same edges on both sides, and its sweep
// skips degree-0 vertices through a mask. What renumbering adds is a
// translation: a caller who knows vertices by their original IDs must map
// the parent and level arrays back.
//
// Like for like: both sides traverse the same roots (drawn in the original
// ID space, mapped through the permutation for the renumbered side), and
// every traversal is timed around the runner call. The renumbered side is
// reported twice, with and without translating its result back.
#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench_common.hpp"
#include "engine/bfs_program.hpp"
#include "graph/relabel.hpp"
#include "graph/uniform.hpp"
#include "util/prng.hpp"
#include "util/statistics.hpp"
#include "util/timer.hpp"

using namespace sembfs;
using namespace sembfs::bench;

namespace {

constexpr int kRepetitions = 3;

/// One layout's DRAM graphs and a runner over them.
class Layout {
 public:
  Layout(const EdgeList& edges, ThreadPool& pool, std::size_t numa_nodes)
      : partition_{edges.vertex_count(), numa_nodes},
        forward_(ForwardGraph::build(edges, partition_, CsrBuildOptions{},
                                     pool)),
        backward_(BackwardGraph::build(edges, partition_, CsrBuildOptions{},
                                       pool)),
        runner_{storage(), NumaTopology::with_total_threads(numa_nodes,
                                                            pool.size()),
                pool} {}

  BfsResult run(Vertex root, const BfsConfig& config) {
    return runner_.run(root, config);
  }
  [[nodiscard]] bool has_edges(Vertex v) const {
    return !backward_.neighbors(v).empty();
  }

 private:
  [[nodiscard]] GraphStorage storage() const {
    GraphStorage s;
    s.forward = &forward_;
    s.backward = &backward_;
    return s;
  }

  VertexPartition partition_;
  ForwardGraph forward_;
  BackwardGraph backward_;
  HybridBfsRunner runner_;
};

/// Per-layout TEPS and time samples and bottom-up edges.
struct Tally {
  std::vector<double> teps;
  std::vector<double> milliseconds;
  double bottom_up_edges = 0.0;

  void add(double edges, double seconds, std::int64_t bottom_up) {
    teps.push_back(seconds > 0.0 ? edges / seconds : 0.0);
    milliseconds.push_back(seconds * 1e3);
    bottom_up_edges += static_cast<double>(bottom_up);
  }
};

std::vector<Vertex> draw_roots(const Layout& layout, Vertex n, int count,
                               std::uint64_t seed) {
  Xoroshiro128 rng{seed};
  std::vector<Vertex> roots;
  std::unordered_set<Vertex> chosen;
  for (std::uint64_t attempt = 0;
       roots.size() < static_cast<std::size_t>(count) &&
       attempt < 100 * static_cast<std::uint64_t>(n) + 1000;
       ++attempt) {
    const auto v = static_cast<Vertex>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (layout.has_edges(v) && chosen.insert(v).second) roots.push_back(v);
  }
  return roots;
}

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::resolve();
  print_header(config,
               "Ablation — degree-ordered vertex relabeling (NETAL, ref "
               "[10]) vs hub-first lists",
               "renumbering finds parents sooner; hub-first lists keep the "
               "IDs and do the same bottom-up work");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};
  const auto nodes = static_cast<std::size_t>(config.env.numa_nodes);
  BfsConfig bfs;
  bfs.policy.alpha = 1e3;
  bfs.policy.beta = 1e4;

  AsciiTable table({"workload", "layout", "median TEPS", "median ms/BFS",
                    "bottom-up edges/BFS", "vs hub-first"});
  bool same_answers = true;
  const auto run_workload = [&](const char* name, const EdgeList& edges) {
    const Relabeling map = degree_order_relabeling(edges, pool);
    const EdgeList renamed = apply_relabeling(edges, map);
    Layout library{edges, pool, nodes};
    Layout renumbered{renamed, pool, nodes};
    const std::vector<Vertex> roots = draw_roots(
        library, edges.vertex_count(), config.env.roots, config.env.seed);

    Tally hub_first;
    Tally ordered;
    Tally translated;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      for (const Vertex root : roots) {
        Timer timer;
        const BfsResult a = library.run(root, bfs);
        const double a_seconds = timer.seconds();
        hub_first.add(static_cast<double>(a.teps_edge_count), a_seconds,
                      a.scanned_edges_bottom_up);

        timer.reset();
        const BfsResult b = renumbered.run(map.to_new(root), bfs);
        const double b_seconds = timer.seconds();
        const std::vector<Vertex> parent =
            map.restore_vertex_array(b.parent, /*values_are_vertices=*/true);
        const std::vector<std::int32_t> level =
            map.restore_level_array(b.level);
        const double b_translated = timer.seconds();
        ordered.add(static_cast<double>(b.teps_edge_count), b_seconds,
                    b.scanned_edges_bottom_up);
        translated.add(static_cast<double>(b.teps_edge_count), b_translated,
                       b.scanned_edges_bottom_up);
        same_answers = same_answers && level == a.level &&
                       b.teps_edge_count == a.teps_edge_count &&
                       parent[static_cast<std::size_t>(root)] == root;
      }
    }

    const double runs = static_cast<double>(hub_first.teps.size());
    const double base = compute_stats(hub_first.teps).median;
    const auto row = [&](const char* layout, Tally& tally) {
      const double teps = compute_stats(std::move(tally.teps)).median;
      const double ms = compute_stats(std::move(tally.milliseconds)).median;
      table.add_row(
          {name, layout, format_teps(teps), format_fixed(ms, 2),
           format_count(static_cast<std::uint64_t>(tally.bottom_up_edges /
                                                   runs)),
           format_fixed((teps / base - 1.0) * 100.0, 1) + "%"});
    };
    row("hub-first lists, Graph500 IDs (library)", hub_first);
    row("degree-ordered IDs", ordered);
    row("degree-ordered IDs + translate back", translated);
  };

  KroneckerParams kron;
  kron.scale = config.env.scale;
  kron.edge_factor = config.env.edge_factor;
  kron.seed = config.env.seed;
  run_workload("Kronecker (Graph500)", generate_kronecker(kron, pool));

  UniformParams uniform;
  uniform.scale = config.env.scale;
  uniform.edge_factor = config.env.edge_factor;
  uniform.seed = config.env.seed;
  run_workload("uniform (Erdos-Renyi)", generate_uniform(uniform, pool));

  table.print();
  std::printf("\nsame levels and TEPS edge counts on every mapped root: %s\n",
              same_answers ? "yes" : "NO");
  std::printf("expected shape: equal bottom-up edges per BFS within each "
              "workload; translating back costs the renumbered side its "
              "lead.\n");
  return same_answers ? 0 : 1;
}
