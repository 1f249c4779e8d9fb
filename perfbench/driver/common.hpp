// Shared pieces of the benchmark driver: the run arguments, the driver's
// own clock and span log, the report every workload fills in, and the
// checker-side graph oracle.
//
// The driver reaches the library only through its stable entry points
// (Graph500Instance, QueryEngine, MutableGraph, ShardedBfs, their result
// structs and the obs registry). Everything here is benchmark-side: the
// spans are recorded around calls into the library, never inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "graph/edge_list.hpp"
#include "nvm/io_stats.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

using sembfs::Vertex;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

/// Nanoseconds on the driver's steady clock since the driver started.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] inline double to_seconds(std::int64_t ns) { return 1e-9 * static_cast<double>(ns); }

/// One timed interval around a call into a layer. `parent` is the id of
/// the span that caused it (0 = none); `op` ties the spans of one
/// operation (traversal, query, write) together.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t op = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store, written out once the run ends. Recording is
/// switched on and off with the traced segments of a run; while off,
/// add() records nothing and returns 0.
class SpanLog {
 public:
  void set_recording(bool on);
  std::int64_t add(std::string name, std::int64_t parent, std::int64_t op,
                   std::int64_t start_ns, std::int64_t end_ns);
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  bool recording_ = false;
  std::int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// What one workload hands back to main(): raw samples and sums. The
/// arithmetic that turns them into metrics lives in harness.py, where it
/// is unit-tested.
struct Report {
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  void fail(const std::string& message);
  void add(const std::string& key, double v) { values[key] += v; }
  void sample(const std::string& key, double v) { series[key].push_back(v); }
};

/// Adds the IoStats deltas of one measured stretch to the report's nvm.*
/// sums (requests, bytes, sectors, busy/wait seconds, queue integral,
/// elapsed window, retries).
void account_io(const sembfs::IoStatsSnapshot& before,
                const sembfs::IoStatsSnapshot& after, Report& report);

/// Process VmRSS in KiB (0 if /proc is unavailable).
[[nodiscard]] std::uint64_t rss_kib();
/// Returns freed heap pages to the OS, so neither a torn-down set-up
/// repetition nor the freed answers of the timed phase linger in the RSS
/// the benchmark reports.
void release_free_memory();

/// Checker-side adjacency: the whole graph with sorted neighbor lists, for
/// edge-membership tests and degrees. Built outside every timed region;
/// its bytes are subtracted from the reported RSS.
class EdgeOracle {
 public:
  EdgeOracle(const sembfs::EdgeList& edges, sembfs::ThreadPool& pool);
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;
  [[nodiscard]] std::int64_t degree(Vertex v) const { return csr_.degree(v); }
  [[nodiscard]] Vertex vertex_count() const { return csr_.global_vertex_count(); }
  [[nodiscard]] const sembfs::Csr& csr() const { return csr_; }
  [[nodiscard]] std::uint64_t bytes() const { return csr_.byte_size(); }

 private:
  sembfs::Csr csr_;
};

/// Passes over the roots in a traversal workload's timed phase: a fixed
/// number per second of --seconds, never fewer than one (two in a traced
/// run, which alternates untraced and traced passes). The count depends on
/// the arguments alone, so two builds of the program measure the same
/// traversals however fast each one runs.
[[nodiscard]] int pass_count(const Args& args, double passes_per_second);

/// The Graph500 root rule: `count` distinct vertices of degree >= 1,
/// drawn from a stream seeded by `seed`.
[[nodiscard]] std::vector<Vertex> pick_roots(const EdgeOracle& oracle,
                                             int count, std::uint64_t seed);

/// Checks repeat traversals of a root against its first traversal, which
/// the caller has validated in full (Graph500 Step 4). A repeat must
/// reproduce the validated levels exactly, and every vertex whose parent
/// differs from the validated tree must hang off a graph edge from a
/// vertex one level up. Together that is Step 4 again, for the price of one
/// pass over the arrays (most parents repeat, so few edges are looked up).
class TreeMemory {
 public:
  explicit TreeMemory(const EdgeOracle& oracle) : oracle_(oracle) {}

  [[nodiscard]] bool known(Vertex root) const { return trees_.contains(root); }
  void remember(Vertex root, std::span<const std::int32_t> level,
                std::span<const Vertex> parent);
  /// Returns an empty string when the repeat traversal holds.
  [[nodiscard]] std::string check_repeat(Vertex root,
                                         std::span<const std::int32_t> level,
                                         std::span<const Vertex> parent) const;
  [[nodiscard]] std::uint64_t bytes() const;

 private:
  struct Tree {
    std::uint64_t level_digest = 0;
    std::vector<std::int32_t> parent;
  };
  const EdgeOracle& oracle_;
  std::unordered_map<Vertex, Tree> trees_;
};

// The workloads (see perfbench/README.md for why each exists). Each sets
// only workload properties: graph size and seed, scenario, time_scale 1.0,
// the root rule and the traffic. Every tuning knob keeps its default.
Report run_g500(const Args& args, bool ssd, sembfs::ThreadPool& pool,
                SpanLog& spans);
Report run_serve_rw(const Args& args, sembfs::ThreadPool& pool,
                    SpanLog& spans);
Report run_sharded(const Args& args, sembfs::ThreadPool& pool,
                   SpanLog& spans);

}  // namespace perfbench
