// Workloads g500_dram and g500_ssd: Graph500 Steps 1-4 on one Kronecker
// graph, with the forward graph in DRAM or offloaded to the sata_ssd model.
//
// The timed phase runs a fixed number of whole passes over the 64 roots,
// set by --seconds alone (pass_count). Each traversal is timed around
// run_bfs alone; its answer is checked afterwards, off the clock. In a
// traced run, passes alternate between untraced and traced (obs registry
// on, spans recorded), so the per-layer counts come from the traced passes
// and obs.trace_overhead compares the two kinds of pass in one process.
#include <memory>

#include "common.hpp"
#include "graph500/instance.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

constexpr int kScale = 18;
constexpr int kEdgeFactor = 16;
constexpr int kRoots = 64;
constexpr int kSetupRepetitions = 3;
constexpr int kWarmupTraversals = 8;
/// About what one second of traversal held on the sata_ssd model on the
/// 4-vCPU guest of README.md's figures; DRAM runs the same count.
constexpr double kPassesPerSecond = 0.85;

sembfs::InstanceConfig instance_config(const Args& args, bool ssd) {
  sembfs::InstanceConfig config;
  config.kronecker.scale = kScale;
  config.kronecker.edge_factor = kEdgeFactor;
  config.kronecker.seed = args.seed;
  config.scenario =
      ssd ? sembfs::Scenario::dram_ssd() : sembfs::Scenario::dram_only();
  config.scenario.time_scale = 1.0;
  config.workdir = args.workdir + "/g500";
  return config;
}

/// Sums a traversal's levels into the per-layer accumulators.
void account_levels(const sembfs::BfsResult& result, Report& report) {
  std::int64_t switches = 0;
  for (std::size_t i = 0; i < result.levels.size(); ++i) {
    const sembfs::LevelStats& ls = result.levels[i];
    const bool td = ls.direction == sembfs::Direction::TopDown;
    report.add(td ? "bfs.td_s" : "bfs.bu_s", ls.seconds);
    report.add(td ? "bfs.td_levels" : "bfs.bu_levels", 1);
    if (!td) report.add("bfs.bu_claims", static_cast<double>(ls.claimed_vertices));
    if (i > 0 && ls.direction != result.levels[i - 1].direction) ++switches;
  }
  report.add("bfs.switches", static_cast<double>(switches));
  report.add("bfs.td_edges", static_cast<double>(result.scanned_edges_top_down));
  report.add("bfs.bu_edges", static_cast<double>(result.scanned_edges_bottom_up));
  report.add("bfs.degraded_levels", result.degraded_levels);
}

}  // namespace

Report run_g500(const Args& args, bool ssd, sembfs::ThreadPool& pool,
                SpanLog& spans) {
  Report report;
  const sembfs::BfsConfig bfs_config;  // every knob at its library default
  std::unique_ptr<sembfs::Graph500Instance> instance;
  std::vector<Vertex> roots;

  spans.set_recording(args.trace);
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    instance.reset();
    release_free_memory();
    const std::int64_t t0 = now_ns();
    instance = std::make_unique<sembfs::Graph500Instance>(
        instance_config(args, ssd), pool);
    const std::int64_t t_built = now_ns();
    roots = instance->select_roots(kRoots, args.seed);
    for (int i = 0; i < kWarmupTraversals; ++i)
      (void)instance->run_bfs(roots[static_cast<std::size_t>(i)], bfs_config);
    const std::int64_t t1 = now_ns();
    report.setup_s.push_back(to_seconds(t1 - t0));
    report.sample("graph500.generate_s", instance->generation_seconds());
    report.sample("graph500.construct_s", instance->construction_seconds());

    const std::int64_t setup = spans.add("setup", 0, 0, t0, t1);
    const std::int64_t ctor = spans.add("graph500.instance", setup, 0, t0, t_built);
    const auto gen_end =
        t0 + static_cast<std::int64_t>(instance->generation_seconds() * 1e9);
    spans.add("graph500.generate", ctor, 0, t0, gen_end);
    spans.add("graph500.construct", ctor, 0, gen_end,
              gen_end + static_cast<std::int64_t>(
                            instance->construction_seconds() * 1e9));
    spans.add("graph500.warmup", setup, 0, t_built, t1);
  }
  if (static_cast<int>(roots.size()) != kRoots) {
    report.fail("select_roots returned too few roots");
    return report;
  }

  // Checker structures, built off the clock and subtracted from the RSS.
  const EdgeOracle oracle{instance->edge_list(), pool};
  TreeMemory trees{oracle};
  release_free_memory();

  sembfs::NvmDevice* device = instance->nvm_device();
  if (device != nullptr) {
    const sembfs::DeviceProfile& p = device->profile();
    report.values["nvm.read_latency_us"] = p.read_latency_us;
    report.values["nvm.read_bandwidth_bps"] = p.read_bandwidth_bps;
    report.values["nvm.time_scale"] = p.time_scale;
  }

  // Timed phase: whole passes over the roots.
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
      const sembfs::IoStatsSnapshot io_before =
          device != nullptr ? device->stats().snapshot() : sembfs::IoStatsSnapshot{};
      const std::int64_t a = now_ns();
      sembfs::BfsResult result = instance->run_bfs(root, bfs_config);
      const std::int64_t b = now_ns();
      const sembfs::IoStatsSnapshot io_after =
          device != nullptr ? device->stats().snapshot() : sembfs::IoStatsSnapshot{};
      const double seconds = to_seconds(b - a);
      timed += seconds;
      ++report.attempted;
      report.sample("op_seconds", seconds);
      report.sample("op_edges", static_cast<double>(result.teps_edge_count));
      report.sample("op_traced", traced ? 1 : 0);
      report.sample("op_root", static_cast<double>(r));

      if (traced) {
        report.add("traversals", 1);
        report.add("graph500.bfs_s", seconds);
        report.add("teps_edges", static_cast<double>(result.teps_edge_count));
        account_levels(result, report);
        account_io(io_before, io_after, report);
        const std::int64_t span = spans.add("graph500.run_bfs", 0, op, a, b);
        std::int64_t cursor = a;
        for (const sembfs::LevelStats& ls : result.levels) {
          const auto end = cursor + static_cast<std::int64_t>(ls.seconds * 1e9);
          spans.add(ls.direction == sembfs::Direction::TopDown
                        ? "bfs.level.top_down"
                        : "bfs.level.bottom_up",
                    span, op, cursor, end);
          cursor = end;
        }
      }

      // Check, off the clock: Graph500 Step 4 on a root's first traversal,
      // the validated-tree comparison on later ones.
      const std::int64_t c0 = now_ns();
      std::string error;
      if (result.degraded) {
        error = "degraded traversal";
      } else if (!trees.known(root)) {
        const sembfs::ValidationResult check = instance->validate(result);
        if (check.ok)
          trees.remember(root, result.level, result.parent);
        else
          error = check.error;
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
      static_cast<double>(oracle.bytes() + trees.bytes()) / (1 << 20);
  report.values["timed_s"] = timed;
  return report;
}

}  // namespace perfbench
