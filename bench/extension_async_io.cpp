// Extension: chunk caching on top of the asynchronous, merged top-down
// read path of the semi-external forward graph.
//
// The paper measures the I/O behaviour of its synchronous 4 KiB read(2)
// path (Figure 12: avgqu-sz 36-56; Figure 13: avgrq-sz ~10-11 sectors) and
// concludes that "we may exploit further I/O performance of the devices by
// aggregating small I/O operations such as libaio". Every top-down level
// now reads that way: merged batch reads posted to the graph's I/O
// scheduler, whose depth follows the device's channels and the compute
// workers (Figure 12's queue is reproduced by fig12_io_queue_length). This
// bench measures the accelerator left to choose, with the same
// iostat-style methodology as Figures 12/13:
//
//  - chunk-cache sweep: a bounded DRAM cache of 4 KiB chunks. Kronecker
//    degree skew concentrates repeat reads on hub chunks, so even a cache
//    far smaller than the offloaded graph removes a large share of device
//    requests (reported as hit rate and requests per root).
#include <cstdio>

#include "bench_common.hpp"

using namespace sembfs;
using namespace sembfs::bench;

int main() {
  BenchConfig config = BenchConfig::resolve();
  // Queue behaviour is a concurrency phenomenon (the paper's machine runs
  // 48 threads); default oversubscribed like fig12 so the device queue and
  // the scheduler actually fill. SEMBFS_THREADS still overrides.
  config.env.threads = static_cast<int>(env_int("SEMBFS_THREADS", 48));
  print_header(config,
               "Extension — async I/O scheduler + chunk cache for the "
               "external forward graph",
               "the paper's Fig-13 conclusion (aggregate small I/O, keep "
               "the device queue full) plus hub-chunk caching; device "
               "requests drop, avgqu-sz is sustained by the scheduler");

  ThreadPool pool{static_cast<std::size_t>(config.env.threads)};
  const int roots = std::max(2, config.env.roots / 2);

  Graph500Instance instance =
      make_instance(config, Scenario::dram_pcie_flash(), pool);
  ExternalForwardGraph* external = instance.external_forward();
  if (external == nullptr) {
    std::printf("scenario has no external forward graph; nothing to do\n");
    return 0;
  }

  BfsConfig base;
  base.mode = BfsMode::TopDownOnly;  // maximize external-graph traffic

  // --- Chunk-cache capacity sweep ---------------------------------------
  {
    AsciiTable table({"cache", "requests", "hit rate", "evictions",
                      "avgqu-sz"});
    CsvWriter csv({"cache_bytes", "requests", "hit_rate", "evictions",
                   "avgqu_sz"});
    const std::uint64_t baseline =
        run_graph500_bfs_phase(instance, base, roots, false, 0xbf5)
            .nvm_io.requests;
    table.add_row({"off", format_count(baseline), "-", "-", "-"});
    csv.add_row({"0", std::to_string(baseline), "0", "0", "0"});
    for (const std::size_t mib : {1, 4, 16, 64}) {
      external->disable_chunk_cache();  // cold start per point
      BfsConfig bfs = base;
      bfs.chunk_cache_bytes = mib << 20;
      const BenchmarkRun run =
          run_graph500_bfs_phase(instance, bfs, roots, false, 0xbf5);
      const ChunkCache* cache = external->chunk_cache();
      const ChunkCacheStats stats =
          cache != nullptr ? cache->stats() : ChunkCacheStats{};
      table.add_row({std::to_string(mib) + " MiB",
                     format_count(run.nvm_io.requests),
                     format_fixed(100.0 * stats.hit_rate(), 1) + " %",
                     format_count(stats.evictions),
                     format_fixed(run.nvm_io.avg_queue_length, 2)});
      csv.add_row({std::to_string(mib << 20),
                   std::to_string(run.nvm_io.requests),
                   format_fixed(stats.hit_rate(), 4),
                   std::to_string(stats.evictions),
                   format_fixed(run.nvm_io.avg_queue_length, 3)});
    }
    std::printf("\nchunk-cache sweep (%d roots share one cache per "
                "point):\n", roots);
    table.print();
    std::printf("expected shape: requests fall and hit rate rises with "
                "capacity; Kronecker hubs make even 1 MiB worthwhile.\n");
    maybe_write_csv(config, "extension_async_io_cache", csv);
  }

  // --- Cache on the scheduler-fed path, with Step-4 validation ----------
  {
    external->disable_chunk_cache();
    BfsConfig bfs = base;
    bfs.chunk_cache_bytes = 16 << 20;
    const BenchmarkRun run =
        run_graph500_bfs_phase(instance, bfs, roots, true, 0xbf5);
    std::size_t valid = 0;
    for (const auto& r : run.runs) valid += r.validated ? 1 : 0;
    const IoScheduler* scheduler = external->io_scheduler();
    std::printf("\ncombined (16 MiB cache, scheduler depth %zu): %zu/%zu "
                "roots validated, %llu device requests, avgqu-sz %.2f, "
                "cache hit rate %.1f %%\n",
                scheduler != nullptr ? scheduler->queue_depth() : 0, valid,
                run.runs.size(),
                static_cast<unsigned long long>(run.nvm_io.requests),
                run.nvm_io.avg_queue_length,
                100.0 * external->chunk_cache()->stats().hit_rate());
  }
  return 0;
}
