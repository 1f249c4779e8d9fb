// Extension: concurrent BFS serving over one shared semi-external graph.
//
// The paper benchmarks one traversal at a time; a deployed graph service
// answers many reachability/distance queries concurrently against the SAME
// resident graph. This bench drives the serving engine (src/serve) with a
// seeded closed-loop load generator and sweeps the MS-BFS batch width:
//
//  - batch 1: every query runs as its own slot-pooled program session,
//    levels interleaved one per dispatcher tick (fairness baseline),
//  - batch 8 / 64: batchable queries share one multi-source traversal —
//    per-vertex uint64 lane words on the word-parallel bottom-up kernel,
//    so up to 64 queries pay roughly one sweep's memory traffic.
//
// Expected shape: QPS grows with batch width once concurrency exceeds the
// width, because the shared sweep amortizes the per-level vertex scan that
// dominates single-query bottom-up time. The acceptance bar for the
// serving subsystem is >= 2x QPS at batch 64 vs batch 1 under a 64-client
// closed loop.
// A second sweep compares batch planners under traffic shaping: a
// Zipf-skewed bursty mix with a high-priority lane and deadlines, FIFO
// planner vs the cost-aware planner plus hot-root result cache. The
// shaped acceptance bar is >= 1.3x goodput with no p99 regression and
// zero high-priority deadline misses.
#include <cstdio>
#include <deque>

#include "bench_common.hpp"
#include "serve/batch_planner.hpp"
#include "serve/engine.hpp"
#include "serve/load_gen.hpp"
#include "util/timer.hpp"

using namespace sembfs;
using namespace sembfs::bench;

int main() {
  BenchConfig config = BenchConfig::resolve();
  print_header(config,
               "Extension — concurrent BFS query serving (MS-BFS batching)",
               "closed-loop clients over one shared graph; batched "
               "multi-source traversals amortize the per-level sweep, so "
               "QPS scales with batch width at equal correctness");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};
  Graph500Instance instance =
      make_instance(config, Scenario::dram_pcie_flash(), pool);

  const auto clients =
      static_cast<std::size_t>(env_int("SEMBFS_SERVE_CLIENTS", 16));
  const auto per_client =
      static_cast<std::size_t>(env_int("SEMBFS_SERVE_QUERIES", 4));

  AsciiTable table({"batch", "qps", "mean ms", "p50 ms", "p95 ms", "p99 ms",
                    "batches", "batched", "sessions"});
  CsvWriter csv({"batch", "qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
                 "batches", "batched_queries", "session_queries"});
  double qps_batch1 = 0.0;
  double qps_best = 0.0;
  for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}}) {
    serve::EngineConfig engine_config;
    engine_config.max_batch = width;
    engine_config.queue_capacity = clients * per_client + 1;
    serve::QueryEngine engine{instance.storage(), instance.topology(), pool,
                              engine_config};

    serve::LoadGenConfig load;
    load.clients = clients;
    load.queries_per_client = per_client;
    load.seed = config.env.seed;
    // batch 1 measures the pure session path; wider rows the MS-BFS path.
    load.options.batchable = width > 1;
    const serve::LoadGenReport report =
        serve::run_load(engine, instance.vertex_count(), load);
    engine.shutdown();
    const serve::EngineStats stats = engine.stats();

    table.add_row({std::to_string(width), format_fixed(report.qps, 1),
                   format_fixed(report.mean_ms, 2),
                   format_fixed(report.p50_ms, 2),
                   format_fixed(report.p95_ms, 2),
                   format_fixed(report.p99_ms, 2),
                   format_count(stats.batches),
                   format_count(stats.batched_queries),
                   format_count(stats.session_queries)});
    csv.add_row({std::to_string(width), format_fixed(report.qps, 2),
                 format_fixed(report.mean_ms, 3),
                 format_fixed(report.p50_ms, 3),
                 format_fixed(report.p95_ms, 3),
                 format_fixed(report.p99_ms, 3),
                 std::to_string(stats.batches),
                 std::to_string(stats.batched_queries),
                 std::to_string(stats.session_queries)});
    if (width == 1) qps_batch1 = report.qps;
    if (report.qps > qps_best) qps_best = report.qps;
  }

  std::printf("\nbatch-width sweep (%zu closed-loop clients x %zu queries "
              "each):\n", clients, per_client);
  table.print();
  std::printf("expected shape: wider batches raise QPS and cut tail "
              "latency once clients > width; batch 1 is the fairness "
              "baseline every query could fall back to.\n");
  if (qps_batch1 > 0.0)
    std::printf("best/batch-1 speedup: %.2fx\n", qps_best / qps_batch1);
  maybe_write_csv(config, "extension_serving", csv);

  // --- Traffic-shaped sweep: FIFO baseline vs cost-aware + cache -------
  // Zipf(1.0) roots, bursty arrivals, a high-priority client minority
  // with deadlines, per-tenant quotas. Same trace seed for both rows, so
  // the delta is the planner + cache, not the load.
  AsciiTable shaped({"planner", "qps", "p99 ms", "cache hits", "high miss",
                     "retries", "rejected"});
  CsvWriter shaped_csv({"planner", "qps", "p99_ms", "cache_hits",
                        "high_deadline_expired", "retries", "rejected"});
  double qps_fifo = 0.0;
  double qps_shaped = 0.0;
  for (const bool shaped_row : {false, true}) {
    serve::EngineConfig engine_config;
    engine_config.planner = shaped_row ? serve::PlannerMode::CostAware
                                       : serve::PlannerMode::Fifo;
    engine_config.cache_bytes = shaped_row ? (64u << 20) : 0;
    engine_config.queue_capacity = 256;
    engine_config.high_reserve = shaped_row ? 32 : 0;
    engine_config.tenant_quota = 64;

    serve::QueryEngine engine{instance.storage(), instance.topology(), pool,
                              engine_config};
    serve::LoadGenConfig load;
    load.clients = clients;
    load.queries_per_client = per_client;
    load.seed = config.env.seed;
    load.zipf_theta = 1.0;
    load.arrival = serve::ArrivalPattern::Burst;
    load.burst_duty = 0.25;
    load.period_ms = 100.0;
    load.tenants = 4;
    load.high_priority_clients = clients / 8;
    load.max_retries = 8;
    load.options.deadline_ms = 2000.0;
    const serve::LoadGenReport report =
        serve::run_load(engine, instance.vertex_count(), load);
    engine.shutdown();
    const serve::EngineStats stats = engine.stats();

    const char* name = serve::to_string(engine_config.planner);
    shaped.add_row({name, format_fixed(report.qps, 1),
                    format_fixed(report.p99_ms, 2),
                    format_count(stats.cache_hits),
                    format_count(report.high_deadline_expired),
                    format_count(report.retries),
                    format_count(report.rejected)});
    shaped_csv.add_row({name, format_fixed(report.qps, 2),
                        format_fixed(report.p99_ms, 3),
                        std::to_string(stats.cache_hits),
                        std::to_string(report.high_deadline_expired),
                        std::to_string(report.retries),
                        std::to_string(report.rejected)});
    (shaped_row ? qps_shaped : qps_fifo) = report.qps;
  }
  std::printf("\ntraffic-shaped sweep (Zipf 1.0 roots, 25%% burst duty, "
              "%zu high-priority clients, 2 s deadlines):\n", clients / 8);
  shaped.print();
  if (qps_fifo > 0.0)
    std::printf("shaped/fifo goodput ratio: %.2fx (bar: >= 1.3x with zero "
                "high-priority misses)\n", qps_shaped / qps_fifo);
  maybe_write_csv(config, "extension_serving_shaped", shaped_csv);

  // --- Planner drain microbench (queue depth 10k) ----------------------
  // Regression guard for the O(n^2) front-erase the admission queues used
  // to do: draining a 10k-deep deque through plan_batch must be linear —
  // milliseconds, not seconds.
  {
    constexpr std::size_t kDepth = 10'000;
    std::deque<serve::QueryRef> queued;
    for (std::size_t i = 0; i < kDepth; ++i)
      queued.push_back(std::make_shared<serve::Query>(
          static_cast<serve::QueryId>(i + 1),
          static_cast<Vertex>(i % 97), serve::QueryOptions{}));
    Timer drain;
    std::size_t batches = 0;
    std::size_t planned = 0;
    while (!queued.empty()) {
      const serve::BatchPlan plan = serve::plan_batch(queued, 64, 128);
      planned += plan.queries.size();
      ++batches;
    }
    const double ms = drain.milliseconds();
    std::printf("\nplanner drain microbench: %zu queries -> %zu batches in "
                "%.2f ms (%.0f queries/ms)\n", planned, batches, ms,
                ms > 0.0 ? static_cast<double>(planned) / ms : 0.0);
  }
  return 0;
}
