// Extension: overhead of the observability subsystem.
//
// The obs layer is designed so that a binary with the metrics registry
// compiled in but DISABLED pays only a relaxed atomic load + branch per
// instrumented site (acceptance target: <2% TEPS regression vs the same
// binary), and the ENABLED cost stays small enough to leave on during real
// experiments. This bench quantifies both:
//
//  - DRAM scenario (no simulated device sleeps to hide overhead — the
//    worst case for instrumentation): median TEPS with metrics disabled,
//    enabled, and enabled + per-level tracing.
//  - pcie_flash scenario: one instrumented external run showing the
//    metrics an experiment actually gets (device queue-wait/service
//    histograms, chunk-cache hit rate, per-level spans).
#include <cstdio>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace sembfs;
using namespace sembfs::bench;

int main() {
  const BenchConfig config = BenchConfig::resolve();
  print_header(config,
               "Extension — observability overhead (metrics registry, "
               "trace spans)",
               "not a paper figure: validates that the instrumentation "
               "added for the Figure 10-13 analyses is cheap enough to "
               "keep compiled in (disabled-mode target: <2% TEPS)");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};
  const int roots = config.env.roots;

  // --- DRAM overhead: disabled vs enabled vs enabled+trace --------------
  {
    Graph500Instance instance =
        make_instance(config, Scenario::dram_only(), pool);
    BfsConfig bfs;  // hybrid defaults

    obs::set_enabled(false);
    const double teps_off = median_teps(instance, bfs, roots);

    obs::metrics().reset();
    obs::set_enabled(true);
    const double teps_on = median_teps(instance, bfs, roots);

    obs::TraceLog trace;
    bfs.trace = &trace;
    const double teps_traced = median_teps(instance, bfs, roots);
    bfs.trace = nullptr;
    obs::set_enabled(false);

    const auto delta = [&](double teps) {
      return teps_off > 0.0 ? 100.0 * (teps_off - teps) / teps_off : 0.0;
    };
    AsciiTable table({"mode", "median TEPS", "delta vs off"});
    table.add_row({"metrics off", format_teps(teps_off), "-"});
    table.add_row({"metrics on", format_teps(teps_on),
                   format_fixed(delta(teps_on), 2) + " %"});
    table.add_row({"metrics on + trace", format_teps(teps_traced),
                   format_fixed(delta(teps_traced), 2) + " %"});
    std::printf("\nDRAM scenario overhead (%d roots per mode):\n", roots);
    table.print();
    std::printf("expected shape: the off row is the acceptance baseline; "
                "on/trace deltas should be low single-digit percent and "
                "noisy around zero at bench scale (%zu spans recorded).\n",
                trace.span_count());

    CsvWriter csv({"mode", "median_teps", "delta_pct"});
    csv.add_row({"off", format_fixed(teps_off, 0), "0"});
    csv.add_row({"on", format_fixed(teps_on, 0),
                 format_fixed(delta(teps_on), 3)});
    csv.add_row({"trace", format_fixed(teps_traced, 0),
                 format_fixed(delta(teps_traced), 3)});
    maybe_write_csv(config, "extension_observability_overhead", csv);
  }

  // --- What an instrumented external run records -------------------------
  {
    Graph500Instance instance =
        make_instance(config, Scenario::dram_pcie_flash(), pool);
    obs::metrics().reset();
    obs::set_enabled(true);
    obs::TraceLog trace;
    BfsConfig bfs;
    bfs.chunk_cache_bytes = 4 << 20;
    bfs.trace = &trace;
    run_graph500_bfs_phase(instance, bfs, std::max(2, roots / 2), false,
                           0xbf5);
    obs::set_enabled(false);

    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    AsciiTable table({"metric", "value"});
    for (const auto& [name, value] : snap.counters) {
      if (value != 0) table.add_row({name, format_count(value)});
    }
    std::printf("\npcie_flash instrumented run — non-zero counters:\n");
    table.print();

    AsciiTable hist_table({"histogram", "count", "p50 us", "p99 us"});
    for (const auto& [name, h] : snap.histograms) {
      if (h.count == 0) continue;
      hist_table.add_row({name, format_count(h.count),
                          format_fixed(h.quantile(0.5), 1),
                          format_fixed(h.quantile(0.99), 1)});
    }
    std::printf("\nlatency histograms:\n");
    hist_table.print();
    std::printf("\ntrace recorded %zu per-level spans across the runs.\n",
                trace.span_count());
  }
  return 0;
}
