// Workload sharded: ShardedBfs over a 2x2 grid of emulated shards, each on
// its own pcie_flash device model. It is the only workload that reaches
// src/shard: the frontier codec, the message bus and the per-shard NVM
// stacks.
//
// The timed phase runs a fixed number of whole passes over the 64 roots
// (pass_count), timed around each ShardedBfs::run. Every answer is checked
// off the clock the way the repository's runner checks it: levels equal
// the serial reference BFS and the tree passes Graph500 Step 4. Traced runs alternate untraced and
// traced passes, as in the Graph500 workloads.
#include <memory>

#include "bfs/reference_bfs.hpp"
#include "bfs/validate.hpp"
#include "common.hpp"
#include "graph/kronecker.hpp"
#include "obs/metrics.hpp"
#include "shard/sharded_bfs.hpp"

namespace perfbench {

namespace {

constexpr int kScale = 16;
constexpr int kEdgeFactor = 16;
constexpr std::size_t kShards = 4;
constexpr int kRoots = 64;
constexpr int kSetupRepetitions = 3;
constexpr int kWarmupTraversals = 4;
/// About what one second of traversal held on the 4-vCPU guest of
/// README.md's figures (a pass took 3.7-3.9 s).
constexpr double kPassesPerSecond = 0.25;

sembfs::KroneckerParams graph_params(const Args& args) {
  sembfs::KroneckerParams params;
  params.scale = kScale;
  params.edge_factor = kEdgeFactor;
  params.seed = args.seed;
  return params;
}

}  // namespace

Report run_sharded(const Args& args, sembfs::ThreadPool& pool,
                   SpanLog& spans) {
  Report report;
  const sembfs::shard::ShardedBfsConfig bfs_config;  // library defaults
  sembfs::DeviceProfile profile = sembfs::DeviceProfile::pcie_flash();
  profile.time_scale = 1.0;

  std::unique_ptr<sembfs::EdgeList> edges;
  std::unique_ptr<sembfs::shard::ShardedBfs> sharded;
  std::vector<Vertex> roots;
  std::unique_ptr<EdgeOracle> oracle;

  spans.set_recording(args.trace);
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    sharded.reset();
    edges.reset();
    release_free_memory();
    const std::int64_t t0 = now_ns();
    edges = std::make_unique<sembfs::EdgeList>(
        sembfs::generate_kronecker(graph_params(args), pool));
    const std::int64_t t_gen = now_ns();
    sharded = std::make_unique<sembfs::shard::ShardedBfs>(
        *edges, kShards, pool, profile, args.workdir + "/sharded");
    const std::int64_t t_built = now_ns();
    if (rep == 0) {
      // The root rule needs degrees; the checker's oracle has them. It is
      // built once, off the set-up clock.
      oracle = std::make_unique<EdgeOracle>(*edges, pool);
      roots = pick_roots(*oracle, kRoots, args.seed);
    }
    const std::int64_t t_warm = now_ns();
    for (int i = 0; i < kWarmupTraversals; ++i)
      (void)sharded->run(roots[static_cast<std::size_t>(i)], bfs_config);
    const std::int64_t t1 = now_ns();
    const std::int64_t off_clock = t_warm - t_built;
    report.setup_s.push_back(to_seconds(t1 - t0 - off_clock));
    report.sample("graph500.generate_s", to_seconds(t_gen - t0));
    report.sample("graph500.construct_s", to_seconds(t_built - t_gen));

    const std::int64_t setup = spans.add("setup", 0, 0, t0, t1);
    spans.add("graph.generate", setup, 0, t0, t_gen);
    spans.add("shard.construct", setup, 0, t_gen, t_built);
    spans.add("checker.prepare", setup, 0, t_built, t_warm);
    spans.add("shard.warmup", setup, 0, t_warm, t1);
  }
  // The edge list is kept only for Step 4; it is checker memory, as are
  // the oracle and the validated trees.
  TreeMemory trees{*oracle};
  release_free_memory();

  const int passes = pass_count(args, kPassesPerSecond);
  double timed = 0.0;
  std::int64_t op = 0;
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    sembfs::obs::set_enabled(traced);
    spans.set_recording(traced);
    for (std::size_t r = 0; r < roots.size(); ++r) {
      const Vertex root = roots[r];
      ++op;
      const std::int64_t a = now_ns();
      sembfs::shard::ShardedBfsResult result = sharded->run(root, bfs_config);
      const std::int64_t b = now_ns();
      const double seconds = to_seconds(b - a);
      timed += seconds;
      ++report.attempted;
      report.sample("op_seconds", seconds);
      report.sample("op_edges", static_cast<double>(result.teps_edge_count));
      report.sample("op_traced", traced ? 1 : 0);
      report.sample("op_root", static_cast<double>(r));
      report.sample("op_remote_bytes", static_cast<double>(result.total_remote_bytes));

      if (traced) {
        report.add("traversals", 1);
        report.add("teps_edges", static_cast<double>(result.teps_edge_count));
        report.add("shard.remote_bytes", static_cast<double>(result.total_remote_bytes));
        report.add("shard.remote_messages",
                   static_cast<double>(result.total_remote_messages));
        report.add("shard.io_failures", static_cast<double>(result.io_failures));
        double exchange = 0.0;
        double compute = 0.0;
        for (std::size_t i = 1; i < result.levels.size(); ++i)
          if (result.levels[i].direction != result.levels[i - 1].direction)
            report.add("bfs.switches", 1);
        for (const sembfs::shard::ShardLevelStats& ls : result.levels) {
          exchange += ls.exchange_seconds;
          compute += ls.compute_seconds;
          report.add("shard.nvm_requests", static_cast<double>(ls.nvm_requests));
          report.add(ls.direction == sembfs::Direction::TopDown ? "bfs.td_levels"
                                                                : "bfs.bu_levels",
                     1);
        }
        report.add("shard.exchange_s", exchange);
        report.add("shard.compute_s", compute);
        // Level seconds are summed across shards; the child spans show the
        // mean shard's exchange and compute time, laid end to end.
        const std::int64_t span = spans.add("shard.run", 0, op, a, b);
        const auto per_shard = [](double s) {
          return static_cast<std::int64_t>(s * 1e9 / static_cast<double>(kShards));
        };
        spans.add("shard.compute", span, op, a, a + per_shard(compute));
        spans.add("shard.exchange", span, op, a + per_shard(compute),
                  a + per_shard(compute) + per_shard(exchange));
      }

      // Check, off the clock: a root's first traversal must match the
      // serial reference BFS and pass Graph500 Step 4; later ones are
      // compared with that validated tree.
      const std::int64_t c0 = now_ns();
      std::string error;
      if (result.degraded) {
        error = "degraded traversal";
      } else if (!trees.known(root)) {
        if (result.level != sembfs::reference_bfs(oracle->csr(), root).level) {
          error = "levels differ from reference_bfs";
        } else {
          const sembfs::ValidationResult check =
              sembfs::validate_bfs(*edges, root, result.parent, result.level);
          if (check.ok)
            trees.remember(root, result.level, result.parent);
          else
            error = check.error;
        }
      } else {
        error = trees.check_repeat(root, result.level, result.parent);
      }
      if (!error.empty())
        report.fail("root " + std::to_string(root) + ": " + error);
      spans.add("check", 0, op, c0, now_ns());
    }
  }
  sembfs::obs::set_enabled(false);
  spans.set_recording(false);
  release_free_memory();
  report.values["rss_mib"] = static_cast<double>(rss_kib()) / 1024.0;
  report.values["checker_mib"] =
      static_cast<double>(oracle->bytes() + trees.bytes() +
                          edges->edge_count() * sizeof(sembfs::Edge)) /
      (1 << 20);
  report.values["timed_s"] = timed;
  return report;
}

}  // namespace perfbench
