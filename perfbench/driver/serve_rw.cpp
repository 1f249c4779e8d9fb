// Workload serve_rw: a QueryEngine serving reads over a MutableGraph whose
// forward side sits on the pcie_flash model, while a writer mutates it.
//
// Reads are a closed loop: one thread keeps 16 queries in flight, three
// quarters of them 2-hop (max_levels = 2) and one quarter full traversals,
// with roots drawn Zipf(0.9) from a seeded table of 256 vertices of degree
// >= 1 (the table's size sets how often queued queries share a root, and
// with it the planner's riders; README.md gives the measured share). Writes
// are an open loop: a second thread applies 64-edge batches at a fixed
// 20 Hz, 7/8 inserts and 1/8 removals of edges it inserted earlier.
// Inserts avoid base-graph pairs, so every published version contains the
// base graph and the base-graph reference levels bound every answer.
//
// A run has kWindows timed windows, each after a fresh set-up. A read
// window lasts its share of --seconds and then stays open until every
// write scheduled in it has been applied, so reads never run under less
// write load than the schedule asks for when apply slows down; goodput
// divides by the window's real length. A write still unapplied
// kMaxOverrunSeconds past the schedule's end fails.
//
// The driver's clock stamps each completion when the reader observes it;
// checker threads check the answer off the reader's path and then drop
// it, so answers never pile up in memory. The checkers run at SCHED_IDLE
// priority, so their scans take CPU only when the engine leaves some idle;
// answers they have not reached when the window closes are checked after
// it. If they fall so far behind that the reader has to wait for them, the
// wait is reported (the run then measures the checker, a harness fault).
// Warm-up answers are dropped unchecked: they are set-up, not operations.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bfs/reference_bfs.hpp"
#include "common.hpp"
#include "graph/kronecker.hpp"
#include "graph/mutable_graph.hpp"
#include "nvm/nvm_device.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

constexpr int kScale = 16;
constexpr int kEdgeFactor = 16;
constexpr std::size_t kInFlight = 16;
/// 256 roots keep the checker's base-graph reference levels (one int8 per
/// vertex per root) at 16 MiB, computed once off the clock.
constexpr int kRootTable = 256;
constexpr double kZipfTheta = 0.9;
constexpr std::int32_t kHopLimit = 2;
constexpr double kWriteHz = 20.0;
constexpr std::size_t kBatchEdges = 64;
constexpr std::size_t kRemovesPerBatch = kBatchEdges / 8;
/// Timed windows per run, each --seconds / kWindows long and each after a
/// fresh set-up (generation, MutableGraph, engine, warm-up), so every
/// window starts from the same state with the same traffic. The
/// end-to-end metrics are medians over the windows: a slow stretch of a
/// shared host moves one window, not the median. The set-ups are also the
/// three behind setup_s.
constexpr int kWindows = 3;
constexpr double kWarmupSeconds = 1.0;
/// Answers waiting for the checker; beyond this the reader blocks, and the
/// blocked time is reported. Each SCALE-16 answer holds ~786 KB.
constexpr std::size_t kMaxPendingChecks = 256;
/// Checker threads. They run only on CPU the engine leaves idle, and one
/// thread could not use all of it: with one, 30 s traced runs left about a
/// fifth of the CPU idle while the reader waited 0.7-3.4 s for the checker.
constexpr std::size_t kCheckers = 2;
/// How long a read window may stay open past its scheduled length for
/// writes that are behind schedule.
constexpr double kMaxOverrunSeconds = 30.0;
/// Traced runs alternate untraced and traced stretches of this length
/// inside each window.
constexpr double kTraceWindowSeconds = 1.0;

std::uint64_t pair_key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
}

/// Checker-side truth: the root table, its base-graph levels, and every
/// pair the writer ever inserted.
class Reference {
 public:
  Reference(const EdgeOracle& oracle, std::uint64_t seed)
      : oracle_(oracle),
        n_(static_cast<std::size_t>(oracle.vertex_count())),
        table_(pick_roots(oracle, kRootTable, sembfs::derive_seed(seed, 0x7461626c))),
        levels_(table_.size() * n_) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      const sembfs::ReferenceBfsResult ref =
          sembfs::reference_bfs(oracle.csr(), table_[i]);
      for (std::size_t v = 0; v < n_; ++v) {
        if (ref.level[v] > 127) throw std::runtime_error("reference depth > 127");
        levels_[i * n_ + v] = static_cast<std::int8_t>(ref.level[v]);
      }
    }
    double total = 0.0;
    for (std::size_t k = 1; k <= table_.size(); ++k) {
      total += std::pow(static_cast<double>(k), -kZipfTheta);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  [[nodiscard]] const EdgeOracle& oracle() const { return oracle_; }
  [[nodiscard]] Vertex root(std::size_t index) const { return table_[index]; }
  [[nodiscard]] std::size_t zipf_index(double u) const {
    const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - zipf_cdf_.begin()),
                                 table_.size() - 1);
  }

  void log_insert(Vertex u, Vertex v) {
    const std::lock_guard<std::mutex> lock{log_mutex_};
    insert_log_.insert(pair_key(u, v));
  }
  void clear_log() {
    const std::lock_guard<std::mutex> lock{log_mutex_};
    insert_log_.clear();
  }
  [[nodiscard]] bool ever_inserted(Vertex u, Vertex v) const {
    const std::lock_guard<std::mutex> lock{log_mutex_};
    return insert_log_.contains(pair_key(u, v));
  }

  [[nodiscard]] double bytes() const {
    const std::lock_guard<std::mutex> lock{log_mutex_};
    return static_cast<double>(oracle_.bytes() + levels_.size() +
                               insert_log_.size() * 32);
  }

  /// Checks one answer. Returns an empty string when it holds; on success
  /// `edges` receives the Graph500 edge count of the reached set (base
  /// degrees), the TEPS numerator of a full traversal.
  ///
  /// An answer identical to one already verified for the same root and hop
  /// limit passes without the rescan: the base graph never changes and the
  /// insert log only grows, so a verified answer stays valid on every later
  /// version. Thread-safe: the checker threads share the memo.
  std::string check(std::size_t index, std::int32_t hop_limit,
                    const sembfs::serve::QueryResult& r, std::int64_t& edges) {
    if (r.state != sembfs::serve::QueryState::Done)
      return std::string("state ") + sembfs::serve::to_string(r.state) +
             (r.error.empty() ? "" : ": " + r.error);
    if (r.level.size() != n_ || r.parent.size() != n_)
      return "level/parent arrays missing";
    std::uint64_t digest = (index << 8) ^ static_cast<std::uint64_t>(hop_limit);
    for (std::size_t v = 0; v < n_; ++v) {
      digest ^= static_cast<std::uint32_t>(r.level[v]) |
                (static_cast<std::uint64_t>(r.parent[v]) << 32);
      digest *= 0x9e3779b97f4a7c15ULL;
      digest ^= digest >> 29;
    }
    {
      const std::lock_guard<std::mutex> lock{memo_mutex_};
      if (const auto hit = verified_.find(digest); hit != verified_.end()) {
        edges = hit->second;
        ++memo_hits_;
        return {};
      }
    }
    std::string error = scan(index, hop_limit, r, edges);
    if (error.empty()) {
      const std::lock_guard<std::mutex> lock{memo_mutex_};
      if (verified_.size() >= 4096) verified_.clear();
      verified_.emplace(digest, edges);
    }
    return error;
  }

  [[nodiscard]] std::uint64_t memo_hits() const {
    const std::lock_guard<std::mutex> lock{memo_mutex_};
    return memo_hits_;
  }

 private:
  std::string scan(std::size_t index, std::int32_t hop_limit,
                   const sembfs::serve::QueryResult& r, std::int64_t& edges) const {
    const Vertex root = table_[index];
    if (r.level[static_cast<std::size_t>(root)] != 0 ||
        r.parent[static_cast<std::size_t>(root)] != root)
      return "root not at level 0 under itself";
    const std::int8_t* base = &levels_[index * n_];
    std::int64_t degree_sum = 0;
    for (std::size_t v = 0; v < n_; ++v) {
      const std::int32_t l = r.level[v];
      const std::int32_t b = base[v];
      const bool in_limit = hop_limit == 0 || b <= hop_limit;
      if (l < 0) {
        if (b >= 0 && in_limit)
          return "vertex " + std::to_string(v) + " within the hop limit not reached";
        continue;
      }
      if (hop_limit > 0 && l > hop_limit)
        return "vertex " + std::to_string(v) + " beyond the hop limit";
      if (b >= 0 && l > b)
        return "vertex " + std::to_string(v) + " deeper than in the base graph";
      degree_sum += oracle_.degree(static_cast<Vertex>(v));
      if (l == 0) {
        if (static_cast<Vertex>(v) == root) continue;
        return "vertex " + std::to_string(v) + " at level 0 beside the root";
      }
      const Vertex p = r.parent[v];
      if (p < 0 || p >= oracle_.vertex_count() ||
          r.level[static_cast<std::size_t>(p)] != l - 1)
        return "vertex " + std::to_string(v) + ": parent not one level up";
      if (!oracle_.has_edge(static_cast<Vertex>(v), p) &&
          !ever_inserted(static_cast<Vertex>(v), p))
        return "vertex " + std::to_string(v) + ": parent edge never existed";
    }
    edges = degree_sum / 2;
    return {};
  }

  const EdgeOracle& oracle_;
  std::size_t n_;
  std::vector<Vertex> table_;
  std::vector<std::int8_t> levels_;
  std::vector<double> zipf_cdf_;
  mutable std::mutex log_mutex_;
  std::unordered_set<std::uint64_t> insert_log_;
  mutable std::mutex memo_mutex_;  // guards verified_ and memo_hits_
  std::unordered_map<std::uint64_t, std::int64_t> verified_;  ///< digest -> edges
  std::uint64_t memo_hits_ = 0;
};

/// The writer's own state: which of its inserted pairs are still live.
struct WriterState {
  explicit WriterState(std::uint64_t seed)
      : rng(sembfs::derive_seed(seed, 0x7772697465)) {}
  sembfs::Xoroshiro128 rng;
  std::vector<std::pair<Vertex, Vertex>> live;
  std::unordered_set<std::uint64_t> live_keys;
  std::int64_t next_op = 1;
};

struct Answer {
  sembfs::serve::QueryRef query;
  std::size_t index = 0;
  std::int32_t hop_limit = 0;
  std::int64_t op = 0;
  std::int64_t submit_ns = 0;
  std::int64_t observed_ns = 0;
  bool in_window = false;
  bool traced = false;
};

/// One stretch of traffic (warm-up or timed window): the reader loop on
/// the calling thread, plus a writer thread and the checker threads.
class Traffic {
 public:
  /// `window` numbers a timed window; -1 runs the traffic uncounted
  /// (warm-up), its answers dropped unchecked.
  Traffic(sembfs::serve::QueryEngine& engine, sembfs::MutableGraph& graph,
          Reference& reference, WriterState& writer, sembfs::Xoroshiro128& rng,
          Report& report, SpanLog& spans, int window, bool trace)
      : engine_(engine), graph_(graph), ref_(reference), writer_(writer),
        rng_(rng), report_(report), spans_(spans), window_(window),
        counting_(window >= 0), trace_(trace) {}

  /// Runs the traffic. In a counting run, every scheduled write is an
  /// operation; one not applied while the read window was open fails.
  void run(double seconds) {
    start_ns_ = now_ns();
    end_ns_ = start_ns_ + static_cast<std::int64_t>(seconds * 1e9);
    const auto writes = static_cast<std::size_t>(std::llround(seconds * kWriteHz));
    // Each thread's exception is carried out and rethrown after every
    // thread has been joined.
    std::vector<std::exception_ptr> check_errors(kCheckers);
    std::exception_ptr write_error;
    std::exception_ptr read_error;
    std::vector<std::thread> checkers;
    for (std::size_t i = 0; i < kCheckers; ++i)
      checkers.emplace_back([&, i] {
        try {
          check_loop();
        } catch (...) {
          check_errors[i] = std::current_exception();
        }
      });
    std::thread writer{[&] {
      try {
        write_loop(writes);
      } catch (...) {
        write_error = std::current_exception();
      }
      writes_done_ = true;
    }};
    try {
      read_loop();
    } catch (...) {
      read_error = std::current_exception();
    }
    writer.join();
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      readers_done_ = true;
    }
    cv_.notify_all();
    for (std::thread& checker : checkers) checker.join();
    std::vector<std::exception_ptr> errors{read_error, write_error};
    errors.insert(errors.end(), check_errors.begin(), check_errors.end());
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    if (!counting_) return;
    // Only the checker threads touch the report while traffic runs.
    for (const double v : write_ms_) report_.sample("write_ms", v);
    for (const double v : late_ms_) report_.sample("write_late_ms", v);
    for (const double v : apply_ms_) report_.sample("graph.apply_ms", v);
    report_.attempted += writes;
    for (std::size_t k = 0; k < writes; ++k) {
      if (k < applied_ns_.size() && applied_ns_[k] <= window_end_ns_) {
        ++writes_in_window_;
        continue;
      }
      report_.fail("window " + std::to_string(window_) + ", write " + std::to_string(k) +
                   ": not applied before the read window closed");
    }
  }

  /// The read window: its scheduled length, plus the overrun spent waiting
  /// for writes.
  [[nodiscard]] double window_seconds() const { return to_seconds(window_end_ns_ - start_ns_); }
  /// The traced part of the window (Traffic::traced_at: odd stretches).
  [[nodiscard]] double traced_seconds() const {
    double traced = 0.0;
    if (!trace_) return traced;
    for (double t = kTraceWindowSeconds; t < window_seconds(); t += 2 * kTraceWindowSeconds)
      traced += std::min(kTraceWindowSeconds, window_seconds() - t);
    return traced;
  }
  [[nodiscard]] std::size_t writes_in_window() const { return writes_in_window_; }
  /// Time the reader waited in the window for the checker to take answers.
  [[nodiscard]] double reader_blocked_ms() const { return 1e-6 * static_cast<double>(blocked_ns_); }
  /// Most answers waiting for the checker at once while the window was open.
  [[nodiscard]] std::size_t pending_peak() const { return pending_peak_; }
  /// CPU time the checker threads used, window and drain.
  [[nodiscard]] double checker_cpu_s() const { return checker_cpu_s_; }

 private:
  struct Slot {
    sembfs::serve::QueryRef query;
    std::size_t index = 0;
    std::int32_t hop_limit = 0;
    std::int64_t op = 0;
    std::int64_t submit_ns = 0;
  };

  [[nodiscard]] bool traced_at(std::int64_t t) const {
    if (!trace_) return false;
    const auto window = static_cast<std::int64_t>(
        to_seconds(t - start_ns_) / kTraceWindowSeconds);
    return window % 2 == 1;
  }

  void submit(Slot& slot) {
    slot.index = ref_.zipf_index(rng_.next_double());
    slot.hop_limit = rng_.next_below(4) == 0 ? 0 : kHopLimit;
    slot.op = next_op_++;
    sembfs::serve::QueryOptions options;
    options.max_levels = slot.hop_limit;
    slot.submit_ns = now_ns();
    slot.query = engine_.submit(ref_.root(slot.index), options);
  }

  void hand_off(Slot& slot, std::int64_t observed, bool in_window) {
    Answer answer{std::move(slot.query), slot.index, slot.hop_limit, slot.op,
                  slot.submit_ns, observed, in_window, traced_at(observed)};
    std::unique_lock<std::mutex> lock{mutex_};
    if (pending_.size() >= kMaxPendingChecks) {
      const std::int64_t blocked = now_ns();
      space_cv_.wait(lock, [&] { return pending_.size() < kMaxPendingChecks; });
      if (in_window) blocked_ns_ += now_ns() - blocked;
    }
    pending_.push_back(std::move(answer));
    if (in_window) pending_peak_ = std::max(pending_peak_, pending_.size());
    lock.unlock();
    cv_.notify_all();
  }

  void read_loop() {
    std::vector<Slot> slots(kInFlight);
    for (Slot& slot : slots) submit(slot);
    bool obs_on = false;
    const auto overrun_end =
        end_ns_ + static_cast<std::int64_t>(kMaxOverrunSeconds * 1e9);
    for (;;) {
      const std::int64_t t = now_ns();
      if (t >= end_ns_ && (writes_done_ || t >= overrun_end)) break;
      if (traced_at(t) != obs_on) {
        obs_on = !obs_on;
        sembfs::obs::set_enabled(obs_on);
      }
      bool progressed = false;
      for (Slot& slot : slots) {
        if (!slot.query->finished()) continue;
        hand_off(slot, now_ns(), true);
        submit(slot);
        progressed = true;
      }
      if (!progressed) {
        const Slot& oldest = *std::min_element(
            slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.submit_ns < b.submit_ns; });
        oldest.query->wait_for_ms(0.2);
      }
    }
    window_end_ns_ = now_ns();
    window_closed_ = true;
    for (Slot& slot : slots) {
      slot.query->wait();
      hand_off(slot, now_ns(), false);
    }
    sembfs::obs::set_enabled(false);
  }

  void write_loop(std::size_t writes) {
    const EdgeOracle& oracle = ref_.oracle();
    const auto n = static_cast<std::uint64_t>(oracle.vertex_count());
    std::vector<sembfs::EdgeOp> ops;
    for (std::size_t k = 0; k < writes && !window_closed_; ++k) {
      const std::int64_t due =
          start_ns_ + static_cast<std::int64_t>(1e9 * static_cast<double>(k) / kWriteHz);
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
      const std::int64_t sent = now_ns();

      ops.clear();
      const std::size_t earlier = writer_.live.size();
      const std::size_t removes = std::min(kRemovesPerBatch, earlier);
      for (std::size_t i = 0; i < removes; ++i) {
        const std::size_t pick = writer_.rng.next_below(writer_.live.size() - i);
        auto [u, v] = writer_.live[pick];
        writer_.live_keys.erase(pair_key(u, v));
        std::swap(writer_.live[pick], writer_.live[writer_.live.size() - 1 - i]);
        ops.push_back(sembfs::EdgeOp::remove(u, v));
      }
      writer_.live.resize(writer_.live.size() - removes);
      while (ops.size() < kBatchEdges) {
        const auto u = static_cast<Vertex>(writer_.rng.next_below(n));
        const auto v = static_cast<Vertex>(writer_.rng.next_below(n));
        if (u == v || oracle.has_edge(u, v) || writer_.live_keys.contains(pair_key(u, v)))
          continue;
        writer_.live_keys.insert(pair_key(u, v));
        writer_.live.emplace_back(u, v);
        ref_.log_insert(u, v);
        ops.push_back(sembfs::EdgeOp::insert(u, v));
      }

      const std::int64_t a = now_ns();
      graph_.apply(ops);
      const std::int64_t b = now_ns();
      const std::int64_t op = writer_.next_op++;
      applied_ns_.push_back(b);
      if (!counting_) continue;
      write_ms_.push_back(1e-6 * static_cast<double>(b - due));
      late_ms_.push_back(1e-6 * static_cast<double>(sent - due));
      apply_ms_.push_back(1e-6 * static_cast<double>(b - a));
      if (traced_at(due)) spans_.add("graph.apply", 0, -op, a, b);
    }
  }

  void check_loop() {
    sched_param idle{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
    for (;;) {
      Answer answer;
      {
        std::unique_lock<std::mutex> lock{mutex_};
        cv_.wait(lock, [&] { return !pending_.empty() || readers_done_; });
        if (pending_.empty()) break;
        answer = std::move(pending_.front());
        pending_.pop_front();
      }
      space_cv_.notify_all();
      check_one(answer);
    }  // the answer, and its level and parent copies, are dropped here
    timespec cpu{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    const std::lock_guard<std::mutex> lock{report_mutex_};
    checker_cpu_s_ += static_cast<double>(cpu.tv_sec) + 1e-9 * static_cast<double>(cpu.tv_nsec);
  }

  void check_one(const Answer& answer) {
    if (!counting_) return;
    const sembfs::serve::QueryResult& r = answer.query->result();
    const std::int64_t c0 = now_ns();
    std::int64_t edges = 0;
    const std::string error = ref_.check(answer.index, answer.hop_limit, r, edges);
    const std::int64_t c1 = now_ns();
    const std::lock_guard<std::mutex> lock{report_mutex_};
    ++report_.attempted;
    if (!error.empty())
      report_.fail("root " + std::to_string(r.root) + ": " + error);
    if (!answer.in_window) return;

    const double latency_ms = 1e-6 * static_cast<double>(answer.observed_ns - answer.submit_ns);
    report_.sample("latency_ms", latency_ms);
    report_.sample("answer_window", window_);
    report_.sample("answer_done", error.empty() ? 1 : 0);  // Done and correct
    report_.sample("answer_traced", answer.traced ? 1 : 0);
    report_.sample("observe_lag_ms", latency_ms - r.queue_wait_ms - r.exec_ms);
    if (answer.hop_limit == 0 && error.empty()) {
      report_.sample("full_latency_s", 1e-3 * latency_ms);
      report_.sample("full_edges", static_cast<double>(edges));
      report_.sample("full_window", window_);
    }
    if (!answer.traced) return;
    report_.sample("serve.queue_wait_ms", r.queue_wait_ms);
    report_.sample("serve.exec_ms", r.exec_ms);
    const std::int64_t q =
        spans_.add("serve.query", 0, answer.op, answer.submit_ns, answer.observed_ns);
    const auto wait_end =
        answer.submit_ns + static_cast<std::int64_t>(r.queue_wait_ms * 1e6);
    spans_.add("serve.queue_wait", q, answer.op, answer.submit_ns, wait_end);
    spans_.add(r.batched ? "serve.exec.batch" : "serve.exec.session", q, answer.op,
               wait_end, wait_end + static_cast<std::int64_t>(r.exec_ms * 1e6));
    spans_.add("check", 0, answer.op, c0, c1);
  }

  sembfs::serve::QueryEngine& engine_;
  sembfs::MutableGraph& graph_;
  Reference& ref_;
  WriterState& writer_;
  sembfs::Xoroshiro128& rng_;
  Report& report_;
  SpanLog& spans_;
  const int window_;
  const bool counting_;
  const bool trace_;
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
  std::int64_t next_op_ = 1;
  std::atomic<bool> writes_done_{false};
  std::atomic<bool> window_closed_{false};
  std::int64_t window_end_ns_ = 0;  // read after the reader has been joined
  std::int64_t blocked_ns_ = 0;     // reader only
  std::size_t writes_in_window_ = 0;
  std::mutex report_mutex_;  // guards report_ and checker_cpu_s_ among checkers
  double checker_cpu_s_ = 0.0;

  std::mutex mutex_;  // guards pending_, pending_peak_ and readers_done_
  std::condition_variable cv_;
  std::condition_variable space_cv_;
  std::deque<Answer> pending_;
  std::size_t pending_peak_ = 0;
  bool readers_done_ = false;
  std::vector<std::int64_t> applied_ns_;  // writer only: when each write returned
  std::vector<double> write_ms_;
  std::vector<double> late_ms_;
  std::vector<double> apply_ms_;
};

}  // namespace

Report run_serve_rw(const Args& args, sembfs::ThreadPool& pool, SpanLog& spans) {
  Report report;
  sembfs::DeviceProfile profile = sembfs::DeviceProfile::pcie_flash();
  profile.time_scale = 1.0;
  const sembfs::NumaTopology topology =
      sembfs::NumaTopology::with_total_threads(4, pool.size());
  sembfs::KroneckerParams params;
  params.scale = kScale;
  params.edge_factor = kEdgeFactor;
  params.seed = args.seed;

  std::unique_ptr<EdgeOracle> oracle;
  std::unique_ptr<Reference> reference;
  std::shared_ptr<sembfs::NvmDevice> device;
  std::unique_ptr<sembfs::MutableGraph> graph;
  std::unique_ptr<sembfs::serve::QueryEngine> engine;
  const double window_seconds = args.seconds / kWindows;
  report.values["nvm.read_latency_us"] = profile.read_latency_us;
  report.values["nvm.read_bandwidth_bps"] = profile.read_bandwidth_bps;
  report.values["nvm.time_scale"] = profile.time_scale;

  spans.set_recording(args.trace);
  for (int window = 0; window < kWindows; ++window) {
    engine.reset();
    graph.reset();
    device.reset();
    release_free_memory();
    const std::int64_t t0 = now_ns();
    sembfs::EdgeList edges = sembfs::generate_kronecker(params, pool);
    const std::int64_t t_gen = now_ns();
    if (window == 0) {
      oracle = std::make_unique<EdgeOracle>(edges, pool);
      reference = std::make_unique<Reference>(*oracle, args.seed);
    }
    const std::int64_t t_ref = now_ns();
    device = std::make_shared<sembfs::NvmDevice>(profile);
    sembfs::MutableGraphConfig config;
    config.forward = sembfs::MutableForwardKind::kExternal;
    config.workdir = args.workdir + "/serve_rw" + std::to_string(window);
    config.device = device;
    graph = std::make_unique<sembfs::MutableGraph>(std::move(edges), config, pool);
    const std::int64_t t_graph = now_ns();
    engine = std::make_unique<sembfs::serve::QueryEngine>(*graph, topology, pool);
    const std::int64_t t_engine = now_ns();

    reference->clear_log();
    WriterState writer{args.seed};
    sembfs::Xoroshiro128 reader_rng{sembfs::derive_seed(args.seed, 0x72656164)};
    Traffic{*engine, *graph, *reference, writer, reader_rng, report, spans, -1, false}
        .run(kWarmupSeconds);
    const std::int64_t t1 = now_ns();
    report.setup_s.push_back(to_seconds(t1 - t0 - (t_ref - t_gen)));
    report.sample("graph500.generate_s", to_seconds(t_gen - t0));
    report.sample("graph500.construct_s", to_seconds(t_engine - t_ref));

    const std::int64_t setup = spans.add("setup", 0, 0, t0, t1);
    spans.add("graph.generate", setup, 0, t0, t_gen);
    spans.add("checker.prepare", setup, 0, t_gen, t_ref);
    spans.add("graph.mutable_graph", setup, 0, t_ref, t_graph);
    spans.add("serve.engine", setup, 0, t_graph, t_engine);
    spans.add("serve.warmup", setup, 0, t_engine, t1);

    // The timed window, on the state the set-up left.
    const sembfs::serve::EngineStats before = engine->stats();
    const sembfs::IoStatsSnapshot io_before = device->stats().snapshot();
    Traffic traffic{*engine, *graph, *reference, writer, reader_rng, report, spans,
                    window, args.trace};
    traffic.run(window_seconds);
    const std::int64_t t2 = now_ns();
    const sembfs::serve::EngineStats after = engine->stats();
    account_io(io_before, device->stats().snapshot(), report);
    report.sample("window.length_s", traffic.window_seconds());
    report.add("window_s", traffic.window_seconds());
    report.add("window.traced_s", traffic.traced_seconds());
    report.add("window.overrun_s", traffic.window_seconds() - window_seconds);
    report.add("write.in_window", static_cast<double>(traffic.writes_in_window()));
    report.add("reader_blocked_ms", traffic.reader_blocked_ms());
    report.values["check.pending_peak"] = std::max(
        report.values["check.pending_peak"], static_cast<double>(traffic.pending_peak()));
    report.add("check.cpu_s", traffic.checker_cpu_s());
    report.add("drain_s", to_seconds(t2 - t1) - traffic.window_seconds());
    report.add("serve.batches", static_cast<double>(after.batches - before.batches));
    report.add("serve.batched_queries",
               static_cast<double>(after.batched_queries - before.batched_queries));
    report.add("serve.session_queries",
               static_cast<double>(after.session_queries - before.session_queries));
    report.add("serve.failed", static_cast<double>(after.failed - before.failed));
    report.add("serve.rejected", static_cast<double>(after.rejected - before.rejected));
    report.add("serve.deadline_expired",
               static_cast<double>(after.deadline_expired - before.deadline_expired));
  }
  spans.set_recording(false);
  report.values["check.memo_hits"] = static_cast<double>(reference->memo_hits());
  const sembfs::MutableGraphStats graph_stats = graph->stats();
  report.values["graph.delta_ops"] = static_cast<double>(graph_stats.pending_ops);
  report.values["graph.delta_bytes"] = static_cast<double>(graph_stats.delta_bytes);

  // The footprint of the quiesced engine: shutdown() joins the dispatcher,
  // so the state of a batch it has not yet retired cannot leak into the
  // reading (it did, bimodally, when RSS was read right after the drain).
  engine->shutdown();
  release_free_memory();
  report.values["rss_mib"] = static_cast<double>(rss_kib()) / 1024.0;
  report.values["checker_mib"] = reference->bytes() / (1 << 20);
  engine.reset();
  graph.reset();
  return report;
}

}  // namespace perfbench
