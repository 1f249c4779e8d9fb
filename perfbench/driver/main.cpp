// perfbench_driver: runs one workload and prints its raw samples, sums,
// spans and obs counts as one JSON document on stdout. perfbench/run.py
// turns that into the benchmark's metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace {

using perfbench::Report;
using perfbench::Span;

/// Minimal JSON emitter: comma placement is tracked per nesting level.
class JsonOut {
 public:
  void open(char c) {
    comma();
    std::fputc(c, stdout);
    first_ = true;
  }
  void close(char c) {
    std::fputc(c, stdout);
    first_ = false;
  }
  void key(const std::string& k) {
    comma();
    string(k);
    std::fputc(':', stdout);
    first_ = true;
  }
  void number(double v) {
    comma();
    if (std::isfinite(v))
      std::printf("%.17g", v);
    else
      std::fputs("null", stdout);
  }
  void text(const std::string& s) {
    comma();
    string(s);
  }

 private:
  void comma() {
    if (!first_) std::fputc(',', stdout);
    first_ = false;
  }
  static void string(const std::string& s) {
    std::fputc('"', stdout);
    for (const char c : s) {
      if (c == '"' || c == '\\')
        std::printf("\\%c", c);
      else if (static_cast<unsigned char>(c) < 0x20)
        std::printf("\\u%04x", c);
      else
        std::fputc(c, stdout);
    }
    std::fputc('"', stdout);
  }
  bool first_ = true;
};

void emit(const perfbench::Args& args, const Report& report,
          const perfbench::SpanLog& spans) {
  JsonOut out;
  out.open('{');
  out.key("workload");
  out.text(args.workload);
  out.key("seed");
  out.number(static_cast<double>(args.seed));
  out.key("trace");
  out.number(args.trace ? 1 : 0);
  out.key("threads");
  out.number(static_cast<double>(std::thread::hardware_concurrency()));
  out.key("attempted");
  out.number(static_cast<double>(report.attempted));
  out.key("failed");
  out.number(static_cast<double>(report.failed));
  out.key("failures");
  out.open('[');
  for (const std::string& f : report.failures) out.text(f);
  out.close(']');
  out.key("setup_s");
  out.open('[');
  for (const double v : report.setup_s) out.number(v);
  out.close(']');
  out.key("values");
  out.open('{');
  for (const auto& [k, v] : report.values) {
    out.key(k);
    out.number(v);
  }
  out.close('}');
  out.key("series");
  out.open('{');
  for (const auto& [k, vs] : report.series) {
    out.key(k);
    out.open('[');
    for (const double v : vs) out.number(v);
    out.close(']');
  }
  out.close('}');

  if (args.trace) {
    const sembfs::obs::MetricsSnapshot obs = sembfs::obs::metrics().snapshot();
    out.key("obs_counters");
    out.open('{');
    for (const auto& [name, value] : obs.counters) {
      out.key(name);
      out.number(static_cast<double>(value));
    }
    out.close('}');
    // Histograms: summaries, plus the pool.node<k>.step_us family merged
    // into one distribution.
    sembfs::obs::HistogramSnapshot steps;
    out.key("obs_histograms");
    out.open('{');
    for (const auto& [name, h] : obs.histograms) {
      out.key(name);
      out.open('{');
      out.key("count");
      out.number(static_cast<double>(h.count));
      out.key("sum");
      out.number(static_cast<double>(h.sum));
      out.key("mean");
      out.number(h.mean());
      out.key("p50");
      out.number(h.quantile(0.5));
      out.key("p99");
      out.number(h.quantile(0.99));
      out.close('}');
      if (name.rfind("pool.node", 0) == 0 && h.count > 0) {
        steps.min = steps.count == 0 ? h.min : std::min(steps.min, h.min);
        steps.max = std::max(steps.max, h.max);
        steps.count += h.count;
        steps.sum += h.sum;
        for (std::size_t i = 0; i < h.buckets.size(); ++i)
          steps.buckets[i] += h.buckets[i];
      }
    }
    out.key("pool.step_us.merged");
    out.open('{');
    out.key("count");
    out.number(static_cast<double>(steps.count));
    out.key("p99");
    out.number(steps.quantile(0.99));
    out.close('}');
    out.close('}');

    out.key("spans");
    out.open('[');
    for (const Span& s : spans.spans()) {
      out.open('[');
      out.number(static_cast<double>(s.id));
      out.number(static_cast<double>(s.parent));
      out.number(static_cast<double>(s.op));
      out.text(s.name);
      out.number(static_cast<double>(s.start_ns));
      out.number(static_cast<double>(s.end_ns));
      out.close(']');
    }
    out.close(']');
  }
  out.close('}');
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

int usage() {
  std::fputs(
      "usage: perfbench_driver --workload g500_dram|g500_ssd|serve_rw|sharded "
      "--seed N --seconds S --trace 0|1 --workdir DIR\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--workdir") args.workdir = value;
    else return usage();
  }
  if (args.workdir.empty() || args.seconds <= 0.0) return usage();
  sembfs::set_log_level(sembfs::LogLevel::Warn);
  // serve_rw runs with one malloc arena, set before any thread starts, so
  // malloc_trim can hand every freed page back before RSS is read. With
  // glibc's per-thread arenas, answers freed into the top of a thread's
  // arena stayed resident, and serve_rw's RSS swung between two levels
  // ~20 MiB apart from run to run. The other workloads keep the default.
  if (args.workload == "serve_rw") mallopt(M_ARENA_MAX, 1);

  try {
    sembfs::ThreadPool pool{std::max(1u, std::thread::hardware_concurrency())};
    perfbench::SpanLog spans;
    Report report;
    if (args.workload == "g500_dram")
      report = perfbench::run_g500(args, false, pool, spans);
    else if (args.workload == "g500_ssd")
      report = perfbench::run_g500(args, true, pool, spans);
    else if (args.workload == "serve_rw")
      report = perfbench::run_serve_rw(args, pool, spans);
    else if (args.workload == "sharded")
      report = perfbench::run_sharded(args, pool, spans);
    else
      return usage();
    emit(args, report, spans);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
