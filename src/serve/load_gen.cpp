#include "serve/load_gen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/contracts.hpp"
#include "util/statistics.hpp"
#include "util/timer.hpp"

namespace sembfs::serve {

namespace {

constexpr double kPi = 3.14159265358979323846;

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>{ms});
}

/// Sleeps according to the arrival pattern before the next submission.
/// `elapsed_ms` is wall time since the run started (shared across
/// clients so Burst windows line up fleet-wide).
void pace(const LoadGenConfig& config, double elapsed_ms, Xoroshiro128& rng) {
  switch (config.arrival) {
    case ArrivalPattern::Closed:
      return;
    case ArrivalPattern::Burst: {
      const double period = std::max(config.period_ms, 1e-3);
      const double on = period * std::clamp(config.burst_duty, 1e-3, 1.0);
      const double phase = std::fmod(elapsed_ms, period);
      if (phase >= on) sleep_ms(period - phase);  // wait for the next window
      return;
    }
    case ArrivalPattern::Diurnal: {
      const double period = std::max(config.period_ms, 1e-3);
      const double scale =
          1.0 + std::sin(2.0 * kPi * elapsed_ms / period);
      // Jitter breaks the lockstep a shared wall clock would impose.
      sleep_ms(config.think_ms * scale * (0.5 + 0.5 * rng.next_double()));
      return;
    }
  }
}

}  // namespace

const char* to_string(ArrivalPattern pattern) noexcept {
  switch (pattern) {
    case ArrivalPattern::Closed:
      return "closed";
    case ArrivalPattern::Burst:
      return "burst";
    case ArrivalPattern::Diurnal:
      return "diurnal";
  }
  return "unknown";
}

Vertex zipf_root(Xoroshiro128& rng, Vertex vertex_count, double theta) {
  SEMBFS_EXPECTS(vertex_count > 0);
  if (theta <= 0.0)
    return static_cast<Vertex>(
        rng.next_below(static_cast<std::uint64_t>(vertex_count)));
  // Continuous inverse CDF of p(r) ~ r^-theta over ranks [1, n]: for
  // theta == 1 the CDF is ln(r)/ln(n); otherwise
  // (r^(1-theta) - 1) / (n^(1-theta) - 1). Solving for r at uniform u
  // gives the rank; rank 1 (vertex id 0) is the hottest. Low ids are
  // just low ids: no loader relabels, so they are not hubs.
  const double n = static_cast<double>(vertex_count);
  const double u = std::max(rng.next_double(), 1e-12);
  double rank;
  if (std::abs(theta - 1.0) < 1e-9) {
    rank = std::exp(u * std::log(n));
  } else {
    const double one_minus = 1.0 - theta;
    rank = std::pow(u * (std::pow(n, one_minus) - 1.0) + 1.0, 1.0 / one_minus);
  }
  const auto id = static_cast<Vertex>(rank) - 1;
  return std::clamp<Vertex>(id, 0, vertex_count - 1);
}

std::vector<Vertex> generate_trace(std::uint64_t seed, std::size_t count,
                                   Vertex vertex_count, double zipf_theta) {
  SEMBFS_EXPECTS(vertex_count > 0);
  std::vector<Vertex> roots;
  roots.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Xoroshiro128 rng{derive_seed(seed, i)};
    roots.push_back(zipf_root(rng, vertex_count, zipf_theta));
  }
  return roots;
}

LoadGenReport run_load(QueryEngine& engine, Vertex vertex_count,
                       const LoadGenConfig& config) {
  SEMBFS_EXPECTS(config.clients >= 1);
  SEMBFS_EXPECTS(config.tenants >= 1);
  SEMBFS_EXPECTS(vertex_count > 0);

  struct ClientTally {
    std::uint64_t retries = 0;
    std::uint64_t done = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t rejected = 0;
    std::uint64_t high_done = 0;
    std::uint64_t high_deadline_expired = 0;
    std::vector<double> latencies_ms;
  };
  std::vector<ClientTally> tallies(config.clients);

  Timer wall;
  {
    std::vector<std::thread> clients;
    clients.reserve(config.clients);
    for (std::size_t c = 0; c < config.clients; ++c) {
      clients.emplace_back([&, c] {
        ClientTally& tally = tallies[c];
        const bool high = c < config.high_priority_clients;
        QueryOptions options = config.options;
        options.priority = high ? Priority::High : Priority::Normal;
        options.tenant = static_cast<std::uint32_t>(c % config.tenants);
        Xoroshiro128 rng{derive_seed(config.seed, c)};
        for (std::size_t i = 0; i < config.queries_per_client; ++i) {
          pace(config, wall.milliseconds(), rng);
          const Vertex root = zipf_root(rng, vertex_count, config.zipf_theta);
          // One logical query = first submission + bounded retries after
          // Rejected, with exponential backoff + seeded jitter (no
          // hot-spin: a full admission queue used to be resubmitted
          // into immediately, burning a core per rejected client).
          std::size_t attempt = 0;
          for (;;) {
            Timer latency;
            const QueryRef query = engine.submit(root, options);
            query->wait();
            const QueryState state = query->state();
            if (state == QueryState::Rejected) {
              if (attempt >= config.max_retries) {
                ++tally.rejected;  // budget exhausted: logical rejection
                break;
              }
              ++tally.retries;
              const double backoff =
                  config.retry_backoff_ms *
                  static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(
                                          attempt, 20)) *
                  (0.5 + 0.5 * rng.next_double());
              sleep_ms(backoff);
              ++attempt;
              continue;
            }
            switch (state) {
              case QueryState::Done:
                ++tally.done;
                if (query->result().cache_hit) ++tally.cache_hits;
                if (high) ++tally.high_done;
                break;
              case QueryState::Failed:
                ++tally.failed;
                break;
              case QueryState::Cancelled:
                ++tally.cancelled;
                break;
              case QueryState::DeadlineExpired:
                ++tally.deadline_expired;
                if (high) ++tally.high_deadline_expired;
                break;
              default:
                SEMBFS_ASSERT(false && "wait() returned non-terminal");
                break;
            }
            tally.latencies_ms.push_back(latency.milliseconds());
            break;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }

  LoadGenReport report;
  report.seconds = wall.seconds();
  report.issued = config.clients * config.queries_per_client;
  report.high_issued =
      std::min(config.high_priority_clients, config.clients) *
      config.queries_per_client;
  std::vector<double> latencies;
  for (const ClientTally& tally : tallies) {
    report.retries += tally.retries;
    report.done += tally.done;
    report.cache_hits += tally.cache_hits;
    report.failed += tally.failed;
    report.cancelled += tally.cancelled;
    report.deadline_expired += tally.deadline_expired;
    report.rejected += tally.rejected;
    report.high_done += tally.high_done;
    report.high_deadline_expired += tally.high_deadline_expired;
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
  }
  const std::uint64_t accepted = report.issued - report.rejected;
  if (report.seconds > 0.0) {
    report.qps = static_cast<double>(report.done) / report.seconds;
    report.offered_qps = static_cast<double>(accepted) / report.seconds;
  }
  if (!latencies.empty()) {
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    report.mean_ms = sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    report.p50_ms = sorted_quantile(latencies, 0.50);
    report.p95_ms = sorted_quantile(latencies, 0.95);
    report.p99_ms = sorted_quantile(latencies, 0.99);
  }
  return report;
}

}  // namespace sembfs::serve
