// Seeded closed-loop load generator for the serving engine.
//
// Closed loop: each client thread holds at most ONE query in flight —
// submit, wait for the terminal state, record the end-to-end latency,
// repeat. Offered load therefore adapts to engine speed (the classic
// closed-loop property), and `clients` is the concurrency knob.
//
// Traffic shaping knobs layered on top of the closed loop:
//
//   * Root popularity — zipf_theta > 0 draws roots Zipf(theta)-skewed
//     toward LOW vertex ids, modeling the hot-root skew the result cache
//     exists for. No loader relabels the graph, and under the Graph500 ID
//     scramble low ids are not hubs. 0 keeps the uniform draw.
//   * Arrival pattern — Closed hammers continuously; Burst confines
//     submissions to a duty-cycle window of each period (synchronized
//     across clients: the whole fleet bursts together); Diurnal
//     modulates a base think time sinusoidally over the period.
//   * Rejection backoff — a Rejected submission is retried after seeded
//     exponential backoff with jitter, up to max_retries per query, and
//     RETRIES ARE COUNTED SEPARATELY from first-try submissions so
//     goodput is not inflated by resubmission traffic. (The first
//     version of this client resubmitted immediately — a hot-spin that
//     turned every rejection into a CPU-bound admission storm.)
//
// Everything is seeded (util/prng.hpp derive_seed per client), so a run
// is reproducible root-for-root; the same trace helper feeds the
// determinism replay test.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "serve/engine.hpp"
#include "util/prng.hpp"

namespace sembfs::serve {

/// When clients submit (see header comment).
enum class ArrivalPattern {
  Closed,   ///< no think time: submit as fast as answers return
  Burst,    ///< on/off duty cycle, synchronized across clients
  Diurnal,  ///< sinusoidal think time over `period_ms`
};

[[nodiscard]] const char* to_string(ArrivalPattern pattern) noexcept;

struct LoadGenConfig {
  std::size_t clients = 4;
  std::size_t queries_per_client = 16;
  std::uint64_t seed = 42;
  /// Zipf exponent for root popularity; 0 = uniform (the default and the
  /// historical behavior).
  double zipf_theta = 0.0;
  ArrivalPattern arrival = ArrivalPattern::Closed;
  /// Burst/Diurnal cycle length.
  double period_ms = 200.0;
  /// Burst: fraction of each period clients submit in (0 < duty <= 1).
  double burst_duty = 0.25;
  /// Diurnal: base think time, scaled by 1 + sin(2*pi*t/period).
  double think_ms = 1.0;
  /// Max resubmissions after Rejected per logical query (0 = give up
  /// immediately, the historical behavior minus the hot-spin).
  std::size_t max_retries = 0;
  /// Base backoff before the first retry; doubles per attempt, with
  /// seeded jitter in [0.5, 1.0) of the computed value.
  double retry_backoff_ms = 1.0;
  /// Tenants are assigned round-robin over clients (client c -> tenant
  /// c % tenants). 1 = everyone is tenant 0.
  std::size_t tenants = 1;
  /// The FIRST `high_priority_clients` clients submit Priority::High.
  std::size_t high_priority_clients = 0;
  /// Template applied to every submitted query (deadline, max_levels,
  /// batchable); priority/tenant fields are overwritten per client.
  QueryOptions options;
};

struct LoadGenReport {
  std::uint64_t issued = 0;   ///< logical queries (first submissions)
  std::uint64_t retries = 0;  ///< extra submissions after Rejected
  std::uint64_t done = 0;
  std::uint64_t cache_hits = 0;  ///< subset of done answered by the cache
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_expired = 0;
  /// Logical queries whose final outcome was Rejected (retry budget
  /// exhausted) — NOT the raw count of rejected submissions, which is
  /// rejected + retries that eventually succeeded.
  std::uint64_t rejected = 0;
  // High-priority lane accounting (clients [0, high_priority_clients)).
  std::uint64_t high_issued = 0;
  std::uint64_t high_done = 0;
  std::uint64_t high_deadline_expired = 0;
  double seconds = 0.0;  ///< wall time of the whole run
  /// Goodput: successfully answered (Done) queries per second of wall
  /// time. Failed / cancelled / expired queries consumed engine capacity
  /// but delivered no answer, so they are excluded — an earlier version
  /// divided `issued - rejected` by wall time, which inflated "throughput"
  /// exactly when the engine was failing queries.
  double qps = 0.0;
  /// Offered load actually admitted: (issued - rejected) per second of
  /// wall time — the quantity the old `qps` reported. Useful next to
  /// `qps` to see how much admitted work failed to complete.
  double offered_qps = 0.0;
  // End-to-end latency (submit -> terminal) of accepted queries, ms.
  // Retry backoff sleeps are excluded; the timer restarts per submission.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// One Zipf(theta)-distributed root in [0, vertex_count), skewed toward
/// low ids; theta <= 0 degenerates to the uniform draw. Continuous
/// inverse-CDF approximation — O(1), no per-n table, deterministic for a
/// given rng state.
[[nodiscard]] Vertex zipf_root(Xoroshiro128& rng, Vertex vertex_count,
                               double theta);

/// Deterministic query trace: `count` roots drawn from [0, vertex_count)
/// with per-index seed derivation — element i is the same no matter how
/// the trace is consumed. theta > 0 skews the draw (Zipf), 0 keeps it
/// uniform.
[[nodiscard]] std::vector<Vertex> generate_trace(std::uint64_t seed,
                                                 std::size_t count,
                                                 Vertex vertex_count,
                                                 double zipf_theta = 0.0);

/// Runs the closed-loop load against a STARTED engine and blocks until
/// every client finishes its quota.
[[nodiscard]] LoadGenReport run_load(QueryEngine& engine,
                                     Vertex vertex_count,
                                     const LoadGenConfig& config);

}  // namespace sembfs::serve
