// Full Graph500 benchmark run under a chosen storage scenario — the
// paper's complete experimental pipeline in one command:
//
//   ./graph500_runner --scale 20 --scenario pcie_flash --alpha 1e6 --beta 1e6
//
// runs 16 roots; --roots 64 gives the specification's count.
//
// Prints the official-style Graph500 output block plus the NVM iostat
// summary (avgqu-sz / avgrq-sz, Figures 12-13) when a device is in play.
#include <atomic>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <thread>

#include "bfs/reference_bfs.hpp"
#include "bfs/validate.hpp"
#include "engine/components_program.hpp"
#include "graph/mutable_graph.hpp"
#include "engine/pagerank_program.hpp"
#include "engine/program_session.hpp"
#include "engine/triangle_program.hpp"
#include "graph500/benchmark.hpp"
#include "obs/export.hpp"
#include "graph/kronecker.hpp"
#include "serve/engine.hpp"
#include "serve/load_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_bfs.hpp"
#include "util/format.hpp"
#include "util/options.hpp"
#include "util/statistics.hpp"

using namespace sembfs;

int main(int argc, char** argv) {
  OptionParser options{"graph500_runner — the 4-step Graph500 benchmark "
                       "with semi-external graph offloading"};
  options.add_int("scale", 18, "log2 of the vertex count");
  options.add_int("edge-factor", 16, "edges per vertex");
  options.add_string("scenario", "dram",
                     "storage scenario: dram | pcie_flash | ssd");
  options.add_int("roots", 16, "number of BFS roots (spec: 64)");
  options.add_double("alpha", 1e4, "top-down -> bottom-up threshold");
  options.add_double("beta", 1e5, "bottom-up -> top-down threshold");
  options.add_string("mode", "hybrid",
                     "BFS mode: hybrid | top-down | bottom-up");
  options.add_int("shards", 0,
                  "emulated multi-node mode: run the BFS across this many "
                  "shards, each with its own NVM stack (0 = single node)");
  options.add_int("shard-rows", 0,
                  "force the shard grid height (0 = as square as the "
                  "shard count allows)");
  options.add_string("shard-format", "raw",
                     "per-shard on-NVM adjacency layout: raw | varint");
  options.add_string("frontier-encoding", "auto",
                     "sharded frontier/membership wire encoding: "
                     "auto | bitmap | varint");
  options.add_int("threads", 0, "worker threads (0 = hardware)");
  options.add_int("numa-nodes", 4, "emulated NUMA nodes");
  options.add_int("backward-dram-edges", -1,
                  "cap on DRAM edges/vertex in the backward graph "
                  "(-1 = all in DRAM)");
  options.add_double("time-scale", 1.0,
                     "multiplier on simulated device service times");
  options.add_int("seed", 12345, "generator seed");
  options.add_string("workdir", "/tmp/sembfs", "directory for NVM files");
  options.add_flag("no-validate", "skip Step 4 validation");
  options.add_int("chunk-cache-bytes", 0,
                  "DRAM chunk cache capacity in bytes (0 = no cache)");
  options.add_string("chunk-format", "raw",
                     "on-NVM adjacency layout: raw | varint "
                     "(varint = delta-compressed chunks)");
  options.add_flag("verify-checksums",
                   "verify fetched chunks against offload-time CRC32s "
                   "(needs --chunk-cache-bytes)");
  options.add_int("io-error-budget", 0,
                  "hard fetch failures tolerated per top-down level before "
                  "falling back to DRAM bottom-up");
  options.add_string("analytics", "",
                     "run one whole-graph analytics program through the "
                     "vertex-program engine instead of the Graph500 root "
                     "loop: cc | pagerank | tc");
  options.add_double("pagerank-tolerance", 1e-8,
                     "PageRank Linf convergence tolerance");
  options.add_int("pagerank-max-iters", 100, "PageRank iteration cap");
  options.add_flag("serve",
                   "serving mode: run a concurrent query engine with a "
                   "closed-loop load generator instead of the Graph500 "
                   "root loop");
  options.add_int("serve-clients", 4, "closed-loop client threads");
  options.add_int("serve-queries", 16, "queries per client");
  options.add_int("serve-queue", 256, "admission queue capacity");
  options.add_int("serve-slots", 4, "reusable BfsStatus session slots");
  options.add_int("serve-batch", 64,
                  "max MS-BFS lanes per batch; <= 1 disables batching "
                  "(every query runs as its own session)");
  options.add_double("serve-deadline-ms", 0.0,
                     "per-query end-to-end deadline (0 = none)");
  options.add_int("serve-seed", 42, "load generator seed");
  options.add_double("serve-zipf", 0.0,
                     "Zipf exponent for root popularity over vertex ids "
                     "(0 = uniform)");
  options.add_string("serve-arrival", "closed",
                     "arrival pattern: closed | burst | diurnal");
  options.add_double("serve-burst", 0.0,
                     "burst duty cycle in (0,1]: fraction of each period "
                     "clients submit in (> 0 implies --serve-arrival burst)");
  options.add_double("serve-period-ms", 200.0, "burst/diurnal cycle length");
  options.add_double("serve-think-ms", 1.0, "diurnal base think time");
  options.add_int("serve-tenants", 1,
                  "tenant count, assigned round-robin over clients");
  options.add_int("serve-tenant-quota", 0,
                  "per-tenant in-flight quota (0 = unlimited)");
  options.add_double("serve-cache-mb", 0.0,
                     "hot-root result cache capacity in MiB (0 = disabled)");
  options.add_string("serve-planner", "cost", "batch planner: cost | fifo");
  options.add_int("serve-high-clients", 0,
                  "leading clients that submit Priority::High");
  options.add_int("serve-high-reserve", 0,
                  "queue slots reserved for the high-priority lane");
  options.add_int("serve-retries", 0,
                  "max resubmissions after Rejected per logical query "
                  "(exponential backoff)");
  options.add_int("serve-batch-queries", 128,
                  "max queries per batch, same-root riders included "
                  "(0 = unlimited)");
  options.add_int("mutate", 0,
                  "serving mode only: edge-update batches applied through "
                  "the mutable graph layer while queries run (0 = sealed)");
  options.add_int("mutate-batch", 64, "edge ops per mutation batch");
  options.add_double("mutate-remove-frac", 0.125,
                     "fraction of each batch that removes a previously "
                     "inserted edge (the rest are inserts)");
  options.add_int("mutate-compact-every", 0,
                  "compact after every K mutation batches (0 = never)");
  options.add_double("mutate-pause-ms", 1.0,
                     "pause between mutation batches");
  options.add_int("mutate-seed", 777, "mutation op-stream seed");
  options.add_string("metrics-out", "",
                     "write the metrics registry as JSON to this path "
                     "(enables metrics collection)");
  options.add_string("metrics-csv", "",
                     "write the metrics registry as CSV to this path "
                     "(enables metrics collection)");
  options.add_string("trace-out", "",
                     "write per-level trace spans as JSON to this path "
                     "(enables metrics collection)");
  FaultPlan::register_options(options);
  RetryPolicy::register_options(options);
  if (!options.parse(argc, argv)) return options.help_requested() ? 0 : 1;

  ThreadPool& pool =
      default_pool(static_cast<std::size_t>(options.get_int("threads")));

  const std::string metrics_out = options.get_string("metrics-out");
  const std::string metrics_csv = options.get_string("metrics-csv");
  const std::string trace_out = options.get_string("trace-out");
  obs::TraceLog trace_log;
  if (!metrics_out.empty() || !metrics_csv.empty() || !trace_out.empty()) {
    obs::metrics().reset();  // this run's numbers only
    obs::set_enabled(true);
  }

  BenchmarkConfig config;
  config.instance.kronecker.scale =
      static_cast<int>(options.get_int("scale"));
  config.instance.kronecker.edge_factor =
      static_cast<int>(options.get_int("edge-factor"));
  config.instance.kronecker.seed =
      static_cast<std::uint64_t>(options.get_int("seed"));
  config.instance.scenario = Scenario::by_name(options.get_string("scenario"));
  config.instance.scenario.time_scale = options.get_double("time-scale");
  config.instance.scenario.backward_dram_edges =
      options.get_int("backward-dram-edges");
  config.instance.numa_nodes =
      static_cast<std::size_t>(options.get_int("numa-nodes"));
  config.instance.workdir = options.get_string("workdir");
  config.num_roots = static_cast<int>(options.get_int("roots"));
  config.validate = !options.get_flag("no-validate");
  config.bfs.policy.alpha = options.get_double("alpha");
  config.bfs.policy.beta = options.get_double("beta");
  config.bfs.chunk_cache_bytes =
      static_cast<std::size_t>(options.get_int("chunk-cache-bytes"));
  const auto chunk_format =
      parse_chunk_format(std::string_view{options.get_string("chunk-format")});
  if (!chunk_format.has_value()) {
    std::fprintf(stderr, "unknown --chunk-format '%s'\n",
                 options.get_string("chunk-format").c_str());
    return 1;
  }
  config.instance.chunk_format = *chunk_format;
  config.bfs.verify_chunk_checksums = options.get_flag("verify-checksums");
  config.bfs.io_error_budget =
      static_cast<std::uint64_t>(options.get_int("io-error-budget"));
  config.bfs.io_retry = RetryPolicy::from_options(options);
  config.fault_plan = FaultPlan::from_options(options);
  if (!trace_out.empty()) config.bfs.trace = &trace_log;

  const std::string mode = options.get_string("mode");
  if (mode == "hybrid")
    config.bfs.mode = BfsMode::Hybrid;
  else if (mode == "top-down")
    config.bfs.mode = BfsMode::TopDownOnly;
  else if (mode == "bottom-up")
    config.bfs.mode = BfsMode::BottomUpOnly;
  else {
    std::fprintf(stderr, "unknown --mode '%s'\n", mode.c_str());
    return 1;
  }

  std::printf("scenario: %s\n", config.instance.scenario.describe().c_str());

  const std::int64_t shards = options.get_int("shards");
  if (shards > 0) {
    // Sharded mode: emulated multi-node BFS over 2D edge blocks with
    // per-shard NVM stacks and compressed frontier exchange. Prints a
    // dist_* key:value block (parsed by the sharded-bfs CI job).
    const auto shard_format = parse_chunk_format(
        std::string_view{options.get_string("shard-format")});
    if (!shard_format.has_value()) {
      std::fprintf(stderr, "unknown --shard-format '%s'\n",
                   options.get_string("shard-format").c_str());
      return 1;
    }
    shard::EncodingChoice encoding;
    try {
      encoding = shard::encoding_choice_from_name(
          options.get_string("frontier-encoding"));
    } catch (const std::invalid_argument&) {
      std::fprintf(stderr, "unknown --frontier-encoding '%s'\n",
                   options.get_string("frontier-encoding").c_str());
      return 1;
    }

    const EdgeList edges =
        generate_kronecker(config.instance.kronecker, pool);
    const Csr full = build_csr(edges, CsrBuildOptions{}, pool);

    // One pool worker per shard rank; widen the pool when the machine
    // (or --threads) offers fewer workers than emulated nodes.
    std::optional<ThreadPool> wide_pool;
    if (pool.size() < static_cast<std::size_t>(shards))
      wide_pool.emplace(static_cast<std::size_t>(shards));
    ThreadPool& shard_pool = wide_pool ? *wide_pool : pool;

    shard::ShardNodeConfig node_config;
    node_config.format = *shard_format;
    node_config.cache_bytes = config.bfs.chunk_cache_bytes;
    node_config.verify_checksums = config.bfs.verify_chunk_checksums;
    node_config.retry = config.bfs.io_retry;
    shard::ShardedBfs sharded{
        edges,
        static_cast<std::size_t>(shards),
        shard_pool,
        config.instance.scenario.effective_profile(),
        config.instance.workdir + "/sharded",
        node_config,
        static_cast<std::size_t>(options.get_int("shard-rows"))};
    if (config.fault_plan.enabled())
      sharded.arm_fault_plans(config.fault_plan);

    shard::ShardedBfsConfig bfs_config;
    bfs_config.policy = config.bfs.policy;
    bfs_config.frontier_encoding = encoding;
    if (config.bfs.mode == BfsMode::TopDownOnly)
      bfs_config.mode = shard::ShardedBfsConfig::Mode::TopDownOnly;
    else if (config.bfs.mode == BfsMode::BottomUpOnly)
      bfs_config.mode = shard::ShardedBfsConfig::Mode::BottomUpOnly;

    // Same root sampling for every configuration of one (scale, seed):
    // the CI job compares per-level profiles across encodings and modes.
    std::mt19937_64 rng{config.instance.kronecker.seed};
    std::uniform_int_distribution<Vertex> pick{0, edges.vertex_count() - 1};
    std::vector<Vertex> roots;
    while (roots.size() < static_cast<std::size_t>(config.num_roots)) {
      const Vertex candidate = pick(rng);
      if (full.degree(candidate) > 0) roots.push_back(candidate);
    }

    const auto& grid = sharded.grid();
    std::printf(
        "dist_shards: %lld\ndist_grid: %zux%zu\ndist_format: %s\n"
        "dist_frontier_encoding: %s\ndist_total_nvm_bytes: %llu\n"
        "dist_max_shard_nvm_bytes: %llu\ndist_max_shard_dram_bytes: %llu\n"
        "dist_roots: %d\n",
        static_cast<long long>(shards), grid.rows(), grid.cols(),
        std::string(to_string(*shard_format)).c_str(),
        shard::encoding_choice_name(encoding),
        static_cast<unsigned long long>(sharded.nvm_byte_size()),
        static_cast<unsigned long long>(sharded.max_shard_nvm_byte_size()),
        static_cast<unsigned long long>(sharded.max_shard_dram_byte_size()),
        config.num_roots);

    std::vector<double> teps;
    std::uint64_t io_failures = 0;
    bool degraded = false;
    bool all_exact = true;
    for (std::size_t r = 0; r < roots.size(); ++r) {
      const shard::ShardedBfsResult result =
          sharded.run(roots[r], bfs_config);
      teps.push_back(result.teps);
      io_failures += result.io_failures;
      degraded = degraded || result.degraded;

      // Reference-exact or the run fails: levels against the serial
      // in-memory BFS, tree shape via Graph500 Step 4.
      const ReferenceBfsResult ref = reference_bfs(full, roots[r]);
      bool exact = result.visited == ref.visited;
      for (Vertex v = 0; exact && v < edges.vertex_count(); ++v)
        exact = result.level[static_cast<std::size_t>(v)] ==
                ref.level[static_cast<std::size_t>(v)];
      if (config.validate) {
        const ValidationResult check =
            validate_bfs(edges, roots[r], result.parent, result.level);
        if (!check.ok) {
          std::fprintf(stderr, "root %lld failed validation: %s\n",
                       static_cast<long long>(roots[r]),
                       check.error.c_str());
          exact = false;
        }
      }
      all_exact = all_exact && exact;

      if (r == 0) {
        // Per-level communication profile of the first root: the
        // direction switch's byte collapse, one line per level.
        for (const shard::ShardLevelStats& ls : result.levels)
          std::printf(
              "dist_level_%d: direction=%s frontier=%lld claimed=%lld "
              "frontier_bytes=%llu membership_bytes=%llu "
              "claim_bytes=%llu remote_bytes=%llu messages=%llu "
              "nvm_requests=%llu\n",
              ls.level, direction_name(ls.direction),
              static_cast<long long>(ls.frontier_vertices),
              static_cast<long long>(ls.claimed_vertices),
              static_cast<unsigned long long>(ls.frontier_bytes),
              static_cast<unsigned long long>(ls.membership_bytes),
              static_cast<unsigned long long>(ls.claim_bytes),
              static_cast<unsigned long long>(ls.remote_bytes),
              static_cast<unsigned long long>(ls.remote_messages),
              static_cast<unsigned long long>(ls.nvm_requests));
        double exchange_s = 0.0;
        double compute_s = 0.0;
        for (const shard::ShardLevelStats& ls : result.levels) {
          exchange_s += ls.exchange_seconds;
          compute_s += ls.compute_seconds;
        }
        std::printf(
            "dist_depth: %d\ndist_visited: %lld\n"
            "dist_remote_bytes: %llu\ndist_remote_messages: %llu\n"
            "dist_exchange_seconds: %.6f\ndist_compute_seconds: %.6f\n",
            result.depth, static_cast<long long>(result.visited),
            static_cast<unsigned long long>(result.total_remote_bytes),
            static_cast<unsigned long long>(result.total_remote_messages),
            exchange_s, compute_s);
      }
    }
    const SampleStats stats = compute_stats(std::move(teps));
    std::printf(
        "dist_median_TEPS: %.6e\ndist_io_failures: %llu\n"
        "dist_degraded: %d\ndist_exact: %s\n",
        stats.median, static_cast<unsigned long long>(io_failures),
        degraded ? 1 : 0, all_exact ? "ok" : "MISMATCH");

    bool dist_exports_ok = true;
    if (!metrics_out.empty() &&
        !obs::write_metrics_json(obs::metrics(), metrics_out)) {
      std::fprintf(stderr, "failed to write metrics JSON to %s\n",
                   metrics_out.c_str());
      dist_exports_ok = false;
    }
    if (!metrics_csv.empty() &&
        !obs::write_metrics_csv(obs::metrics(), metrics_csv)) {
      std::fprintf(stderr, "failed to write metrics CSV to %s\n",
                   metrics_csv.c_str());
      dist_exports_ok = false;
    }
    return all_exact && dist_exports_ok ? 0 : 1;
  }

  const std::string analytics = options.get_string("analytics");
  if (!analytics.empty()) {
    // Analytics mode: build the instance once, run one vertex program
    // through the engine, print a key:value block like the serve mode.
    Graph500Instance instance{config.instance, pool};
    if (config.fault_plan.enabled() && instance.nvm_device() != nullptr)
      instance.nvm_device()->set_fault_plan(config.fault_plan);

    std::unique_ptr<engine::VertexProgram> program;
    if (analytics == "cc") {
      program = std::make_unique<engine::ComponentsProgram>();
    } else if (analytics == "pagerank") {
      engine::PageRankOptions pr;
      pr.tolerance = options.get_double("pagerank-tolerance");
      pr.max_iterations =
          static_cast<std::int32_t>(options.get_int("pagerank-max-iters"));
      program = std::make_unique<engine::PageRankProgram>(pr);
    } else if (analytics == "tc") {
      program = std::make_unique<engine::TriangleProgram>();
    } else {
      std::fprintf(stderr, "unknown --analytics '%s'\n", analytics.c_str());
      return 1;
    }

    engine::ProgramSession session{*program, instance.storage(),
                                   instance.topology(), pool, config.bfs};
    bool failed = false;
    std::string error;
    try {
      session.run();
    } catch (const NvmIoError& e) {
      failed = true;
      error = e.what();
    }

    std::printf(
        "analytics: %s\nanalytics_supersteps: %d\nanalytics_seconds: %.3f\n"
        "analytics_scanned_edges: %lld\nanalytics_nvm_requests: %llu\n"
        "analytics_io_failures: %llu\nanalytics_degraded_supersteps: %d\n",
        analytics.c_str(), session.supersteps_executed(), session.seconds(),
        static_cast<long long>(session.scanned_edges_push() +
                               session.scanned_edges_pull()),
        static_cast<unsigned long long>(session.nvm_requests()),
        static_cast<unsigned long long>(session.io_failures()),
        session.degraded_supersteps());
    if (failed) std::printf("analytics_error: %s\n", error.c_str());

    if (analytics == "cc") {
      auto& cc = static_cast<engine::ComponentsProgram&>(*program);
      const std::vector<Vertex> labels = cc.labels();
      std::vector<bool> seen(labels.size(), false);
      std::int64_t components = 0;
      for (const Vertex l : labels)
        if (!seen[static_cast<std::size_t>(l)]) {
          seen[static_cast<std::size_t>(l)] = true;
          ++components;
        }
      std::printf("components: %lld\n", static_cast<long long>(components));
    } else if (analytics == "pagerank") {
      auto& pr = static_cast<engine::PageRankProgram&>(*program);
      double sum = 0.0;
      for (const double r : pr.ranks()) sum += r;
      std::printf("pagerank_iterations: %d\npagerank_delta: %.3e\n"
                  "pagerank_sum: %.6f\n",
                  pr.iterations(), pr.last_delta(), sum);
    } else if (analytics == "tc") {
      auto& tc = static_cast<engine::TriangleProgram&>(*program);
      std::printf("triangles: %lld\n",
                  static_cast<long long>(tc.triangles()));
    }

    bool analytics_exports_ok = true;
    if (!metrics_out.empty() &&
        !obs::write_metrics_json(obs::metrics(), metrics_out)) {
      std::fprintf(stderr, "failed to write metrics JSON to %s\n",
                   metrics_out.c_str());
      analytics_exports_ok = false;
    }
    if (!metrics_csv.empty() &&
        !obs::write_metrics_csv(obs::metrics(), metrics_csv)) {
      std::fprintf(stderr, "failed to write metrics CSV to %s\n",
                   metrics_csv.c_str());
      analytics_exports_ok = false;
    }
    return !failed && analytics_exports_ok ? 0 : 1;
  }

  const std::int64_t mutate_batches = options.get_int("mutate");
  if (mutate_batches > 0 && !options.get_flag("serve")) {
    std::fprintf(stderr, "--mutate requires --serve\n");
    return 1;
  }

  if (options.get_flag("serve")) {
    // Serving mode: one shared instance, many concurrent queries.
    Graph500Instance instance{config.instance, pool};
    if (config.fault_plan.enabled() && instance.nvm_device() != nullptr)
      instance.nvm_device()->set_fault_plan(config.fault_plan);

    // Live-mutation serving: layer a MutableGraph over the instance's
    // edge list and point the engine at it; a mutator thread publishes
    // delta (and optionally compacted) snapshots while the load runs.
    // The graph gets its own pool so compaction rebuilds never contend
    // with the engine dispatcher's traversal pool (docs/MUTATIONS.md).
    std::optional<ThreadPool> mutate_pool;
    std::optional<MutableGraph> mutable_graph;
    std::shared_ptr<NvmDevice> mutable_device;
    if (mutate_batches > 0) {
      MutableGraphConfig mg;
      mg.numa_nodes = config.instance.numa_nodes;
      mg.chunk_bytes = config.instance.chunk_bytes;
      mg.chunk_format = config.instance.chunk_format;
      mg.backward_dram_edges = config.instance.scenario.backward_dram_edges;
      if (config.instance.scenario.offload_forward)
        mg.forward = MutableForwardKind::kExternal;
      if (mg.forward != MutableForwardKind::kDram ||
          mg.backward_dram_edges >= 0) {
        mg.workdir = config.instance.workdir + "/mutable";
        mutable_device = std::make_shared<NvmDevice>(
            config.instance.scenario.effective_profile());
        mg.device = mutable_device;
      }
      mutate_pool.emplace(std::max<std::size_t>(2, pool.size() / 2));
      mutable_graph.emplace(instance.edge_list(), mg, *mutate_pool);
      // Armed after generation 0 is sealed so only the serving-time reads
      // (and compaction rebuilds) see injected faults.
      if (config.fault_plan.enabled() && mutable_device != nullptr)
        mutable_device->set_fault_plan(config.fault_plan);
    }

    const std::int64_t max_batch = options.get_int("serve-batch");
    serve::EngineConfig engine_config;
    engine_config.queue_capacity =
        static_cast<std::size_t>(options.get_int("serve-queue"));
    engine_config.session_slots =
        static_cast<std::size_t>(options.get_int("serve-slots"));
    engine_config.max_batch = max_batch > 1
                                  ? static_cast<std::size_t>(max_batch)
                                  : std::size_t{1};
    engine_config.default_deadline_ms =
        options.get_double("serve-deadline-ms");
    engine_config.bfs = config.bfs;
    const std::string planner = options.get_string("serve-planner");
    if (planner != "cost" && planner != "fifo") {
      std::fprintf(stderr, "unknown --serve-planner '%s'\n", planner.c_str());
      return 1;
    }
    engine_config.planner = planner == "fifo" ? serve::PlannerMode::Fifo
                                              : serve::PlannerMode::CostAware;
    engine_config.max_batch_queries =
        static_cast<std::size_t>(options.get_int("serve-batch-queries"));
    engine_config.tenant_quota =
        static_cast<std::uint64_t>(options.get_int("serve-tenant-quota"));
    engine_config.high_reserve =
        static_cast<std::size_t>(options.get_int("serve-high-reserve"));
    engine_config.cache_bytes = static_cast<std::size_t>(
        options.get_double("serve-cache-mb") * 1024.0 * 1024.0);
    std::optional<serve::QueryEngine> engine_store;
    if (mutable_graph)
      engine_store.emplace(*mutable_graph, instance.topology(), pool,
                           engine_config);
    else
      engine_store.emplace(instance.storage(), instance.topology(), pool,
                           engine_config);
    serve::QueryEngine& engine = *engine_store;

    // The mutator publishes insert-heavy batches (removes only hit edges
    // this thread inserted earlier, so every tombstone is meaningful).
    std::thread mutator;
    std::uint64_t mutate_ops = 0;  // written before join, read after
    if (mutable_graph) {
      mutator = std::thread{[&] {
        std::mt19937_64 rng{
            static_cast<std::uint64_t>(options.get_int("mutate-seed"))};
        const Vertex n = instance.vertex_count();
        std::uniform_int_distribution<Vertex> pick{0, n - 1};
        const auto batch_ops =
            static_cast<int>(options.get_int("mutate-batch"));
        const double remove_frac =
            options.get_double("mutate-remove-frac");
        const auto compact_every =
            static_cast<int>(options.get_int("mutate-compact-every"));
        const double pause_ms = options.get_double("mutate-pause-ms");
        std::vector<Edge> inserted;
        for (int b = 0; b < mutate_batches; ++b) {
          std::vector<EdgeOp> ops;
          ops.reserve(static_cast<std::size_t>(batch_ops));
          const int removes =
              !inserted.empty()
                  ? static_cast<int>(batch_ops * remove_frac)
                  : 0;
          for (int i = 0; i < batch_ops - removes; ++i) {
            const Vertex u = pick(rng);
            Vertex v = pick(rng);
            while (v == u) v = pick(rng);
            ops.push_back(EdgeOp::insert(u, v));
            inserted.push_back(Edge{u, v});
          }
          for (int i = 0; i < removes && !inserted.empty(); ++i) {
            std::uniform_int_distribution<std::size_t> pick_edge{
                0, inserted.size() - 1};
            const std::size_t at = pick_edge(rng);
            ops.push_back(EdgeOp::remove(inserted[at].u, inserted[at].v));
            inserted.erase(inserted.begin() +
                           static_cast<std::ptrdiff_t>(at));
          }
          mutable_graph->apply(ops);
          mutate_ops += ops.size();
          if (compact_every > 0 && (b + 1) % compact_every == 0)
            mutable_graph->compact();
          if (pause_ms > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double,
                                        std::milli>{pause_ms});
        }
      }};
    }

    serve::LoadGenConfig load;
    load.clients = static_cast<std::size_t>(options.get_int("serve-clients"));
    load.queries_per_client =
        static_cast<std::size_t>(options.get_int("serve-queries"));
    load.seed = static_cast<std::uint64_t>(options.get_int("serve-seed"));
    load.zipf_theta = options.get_double("serve-zipf");
    const std::string arrival = options.get_string("serve-arrival");
    const double burst_duty = options.get_double("serve-burst");
    if (arrival == "burst" || burst_duty > 0.0) {
      load.arrival = serve::ArrivalPattern::Burst;
      if (burst_duty > 0.0) load.burst_duty = burst_duty;
    } else if (arrival == "diurnal") {
      load.arrival = serve::ArrivalPattern::Diurnal;
    } else if (arrival != "closed") {
      std::fprintf(stderr, "unknown --serve-arrival '%s'\n", arrival.c_str());
      return 1;
    }
    load.period_ms = options.get_double("serve-period-ms");
    load.think_ms = options.get_double("serve-think-ms");
    load.tenants = static_cast<std::size_t>(options.get_int("serve-tenants"));
    load.high_priority_clients =
        static_cast<std::size_t>(options.get_int("serve-high-clients"));
    load.max_retries =
        static_cast<std::size_t>(options.get_int("serve-retries"));
    load.options.batchable = max_batch > 1;
    const serve::LoadGenReport report =
        serve::run_load(engine, instance.vertex_count(), load);
    if (mutator.joinable()) mutator.join();
    engine.shutdown();
    const serve::EngineStats stats = engine.stats();
    const serve::ResultCacheStats cache = engine.cache_stats();
    const std::uint64_t cache_lookups = cache.hits + cache.misses;
    const double cache_hit_rate =
        cache_lookups > 0
            ? static_cast<double>(cache.hits) /
                  static_cast<double>(cache_lookups)
            : 0.0;

    std::printf(
        "serve_planner: %s\nserve_arrival: %s\nserve_zipf: %.2f\n"
        "serve_clients: %zu\nserve_queries: %llu\nserve_seconds: %.3f\n"
        "serve_qps: %.2f\nserve_offered_qps: %.2f\n"
        "serve_latency_ms_mean: %.3f\nserve_latency_ms_p50: %.3f\n"
        "serve_latency_ms_p95: %.3f\nserve_latency_ms_p99: %.3f\n"
        "serve_done: %llu\nserve_failed: %llu\nserve_cancelled: %llu\n"
        "serve_deadline_expired: %llu\nserve_rejected: %llu\n"
        "serve_batches: %llu\nserve_batched_queries: %llu\n"
        "serve_session_queries: %llu\n",
        serve::to_string(engine_config.planner),
        serve::to_string(load.arrival), load.zipf_theta,
        load.clients, static_cast<unsigned long long>(report.issued),
        report.seconds, report.qps, report.offered_qps, report.mean_ms,
        report.p50_ms, report.p95_ms, report.p99_ms,
        static_cast<unsigned long long>(report.done),
        static_cast<unsigned long long>(report.failed),
        static_cast<unsigned long long>(report.cancelled),
        static_cast<unsigned long long>(report.deadline_expired),
        static_cast<unsigned long long>(report.rejected),
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.batched_queries),
        static_cast<unsigned long long>(stats.session_queries));
    std::printf(
        "serve_retries: %llu\nserve_quota_rejected: %llu\n"
        "serve_cache_hits: %llu\nserve_cache_hit_rate: %.4f\n"
        "serve_cache_evictions: %llu\nserve_cache_bytes: %zu\n"
        "serve_high_issued: %llu\nserve_high_done: %llu\n"
        "serve_high_deadline_expired: %llu\n",
        static_cast<unsigned long long>(report.retries),
        static_cast<unsigned long long>(stats.quota_rejected),
        static_cast<unsigned long long>(stats.cache_hits), cache_hit_rate,
        static_cast<unsigned long long>(cache.evictions), cache.bytes,
        static_cast<unsigned long long>(report.high_issued),
        static_cast<unsigned long long>(report.high_done),
        static_cast<unsigned long long>(report.high_deadline_expired));
    if (mutable_graph) {
      const MutableGraphStats mg_stats = mutable_graph->stats();
      std::printf(
          "mutate_batches: %lld\nmutate_ops: %llu\n"
          "mutate_version: %llu\nmutate_compactions: %llu\n"
          "mutate_delta_inserts: %zu\nmutate_delta_removes: %zu\n"
          "mutate_delta_bytes: %llu\n"
          "serve_snapshots_published: %llu\n"
          "serve_cache_migrated: %llu\nserve_cache_dropped: %llu\n",
          static_cast<long long>(mutate_batches),
          static_cast<unsigned long long>(mutate_ops),
          static_cast<unsigned long long>(mg_stats.version),
          static_cast<unsigned long long>(mg_stats.compactions),
          mg_stats.delta_inserts, mg_stats.delta_removes,
          static_cast<unsigned long long>(mg_stats.delta_bytes),
          static_cast<unsigned long long>(stats.snapshots_published),
          static_cast<unsigned long long>(stats.cache_entries_migrated),
          static_cast<unsigned long long>(stats.cache_entries_dropped));
    }

    bool serve_exports_ok = true;
    if (!metrics_out.empty() &&
        !obs::write_metrics_json(obs::metrics(), metrics_out)) {
      std::fprintf(stderr, "failed to write metrics JSON to %s\n",
                   metrics_out.c_str());
      serve_exports_ok = false;
    }
    if (!metrics_csv.empty() &&
        !obs::write_metrics_csv(obs::metrics(), metrics_csv)) {
      std::fprintf(stderr, "failed to write metrics CSV to %s\n",
                   metrics_csv.c_str());
      serve_exports_ok = false;
    }
    // Every issued query must have reached a terminal state; failures are
    // the fault-containment path, not a runner error.
    const bool accounted = report.done + report.failed + report.cancelled +
                               report.deadline_expired + report.rejected ==
                           report.issued;
    return accounted && serve_exports_ok ? 0 : 1;
  }

  BenchmarkRun run;
  try {
    run = run_graph500(config, pool);
  } catch (const NvmIoError& e) {
    // A read failure no traversal contains (the backward graph's NVM tail
    // has no DRAM copy to redo a level from) ends the run with a typed
    // error, as in the analytics mode.
    std::printf("graph500_error: %s\n", e.what());
    return 1;
  }

  std::fputs(render_graph500_output(run.output).c_str(), stdout);
  std::printf("graph_dram_bytes: %s\ngraph_nvm_bytes: %s\n",
              format_bytes(run.graph_dram_bytes).c_str(),
              format_bytes(run.graph_nvm_bytes).c_str());
  if (run.graph_nvm_bytes > 0) {
    std::printf("chunk_format: %s\n",
                std::string(to_string(*chunk_format)).c_str());
    if (run.graph_nvm_raw_bytes > run.graph_nvm_bytes) {
      std::printf("graph_nvm_raw_bytes: %s\nnvm_compression_ratio: %.2f\n",
                  format_bytes(run.graph_nvm_raw_bytes).c_str(),
                  static_cast<double>(run.graph_nvm_raw_bytes) /
                      static_cast<double>(run.graph_nvm_bytes));
    }
  }
  if (run.nvm_io.requests > 0) {
    std::printf(
        "nvm_requests: %llu\nnvm_avgqu_sz: %.2f\nnvm_avgrq_sz: %.2f "
        "sectors\nnvm_await_ms: %.3f\nnvm_iops: %.0f\n"
        "nvm_bytes_per_edge: %.3f\n",
        static_cast<unsigned long long>(run.nvm_io.requests),
        run.nvm_io.avg_queue_length, run.nvm_io.avg_request_sectors,
        run.nvm_io.await_ms, run.nvm_io.iops,
        run.nvm_io.bytes_per_edge(run.traversed_edges));
  }
  if (run.nvm_io.read_errors + run.nvm_io.short_reads +
          run.nvm_io.corruptions + run.nvm_io.latency_spikes +
          run.nvm_io.retries >
      0) {
    std::printf(
        "nvm_read_errors: %llu\nnvm_short_reads: %llu\n"
        "nvm_corruptions: %llu\nnvm_latency_spikes: %llu\n"
        "nvm_retries: %llu\n",
        static_cast<unsigned long long>(run.nvm_io.read_errors),
        static_cast<unsigned long long>(run.nvm_io.short_reads),
        static_cast<unsigned long long>(run.nvm_io.corruptions),
        static_cast<unsigned long long>(run.nvm_io.latency_spikes),
        static_cast<unsigned long long>(run.nvm_io.retries));
  }
  std::printf("score (median TEPS): %s\n",
              format_teps(run.output.score()).c_str());

  bool exports_ok = true;
  if (!metrics_out.empty() &&
      !obs::write_metrics_json(obs::metrics(), metrics_out)) {
    std::fprintf(stderr, "failed to write metrics JSON to %s\n",
                 metrics_out.c_str());
    exports_ok = false;
  }
  if (!metrics_csv.empty() &&
      !obs::write_metrics_csv(obs::metrics(), metrics_csv)) {
    std::fprintf(stderr, "failed to write metrics CSV to %s\n",
                 metrics_csv.c_str());
    exports_ok = false;
  }
  if (!trace_out.empty() &&
      !obs::write_trace_json(trace_log, trace_out)) {
    std::fprintf(stderr, "failed to write trace JSON to %s\n",
                 trace_out.c_str());
    exports_ok = false;
  }
  return run.output.all_validated && exports_ok ? 0 : 1;
}
