// Deterministic, seedable fault injection for the simulated NVM device.
//
// The paper's premise is that the top-down direction tolerates a slow,
// flaky storage tier; a FaultPlan makes "flaky" testable. Every READ
// request on a device consumes one index of a global fault sequence, and
// the plan decides — from (seed, request index) alone — whether that
// request errors, returns short, flips a bit, or stalls. Because the
// decision depends only on the sequence index, the SET of faulted indices
// is identical for a given seed regardless of thread scheduling, which is
// what lets the randomized differential sweep print one reproducible seed
// on failure.
//
// Fault kinds (all independent draws per request):
//  - read error:    the request throws NvmIoError instead of performing I/O
//  - short read:    the tail of the destination buffer never arrives
//                   (zero-filled after the real I/O)
//  - bit corruption: one deterministic byte of the destination is flipped
//  - latency spike: the modeled service time is extended by latency_spike_us
//
// fail_after_requests = n adds a one-shot: sequence index n-1 (the n-th
// read from arming) errors exactly once.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sembfs {

class OptionParser;

/// Error type for injected and budget-exhausted I/O failures. Derives from
/// std::runtime_error so pre-existing EXPECT_THROW(std::runtime_error)
/// call sites keep working.
class NvmIoError : public std::runtime_error {
 public:
  explicit NvmIoError(const std::string& what) : std::runtime_error(what) {}
};

/// The plan's verdict for one request index.
struct FaultDecision {
  std::uint64_t request_index = 0;
  bool read_error = false;
  bool short_read = false;
  bool corrupt = false;
  bool latency_spike = false;
  double latency_spike_us = 0.0;  ///< extra service time when spiking
  /// Deterministic per-request entropy used to place buffer mutations
  /// (corrupt byte position, short-read cut point).
  std::uint64_t entropy = 0;

  [[nodiscard]] bool any() const noexcept {
    return read_error || short_read || corrupt || latency_spike;
  }
};

/// A value type describing the fault schedule. decide(i) is pure: the same
/// (plan, i) always yields the same FaultDecision.
struct FaultPlan {
  std::uint64_t seed = 1;
  double read_error_rate = 0.0;
  double short_read_rate = 0.0;
  double corruption_rate = 0.0;
  double latency_spike_rate = 0.0;
  double latency_spike_us = 1000.0;
  /// One-shot deterministic failure: when nonzero, the read request with
  /// sequence index fail_after_requests-1 (i.e. the n-th read after the
  /// plan is armed) raises a read error exactly once.
  std::uint64_t fail_after_requests = 0;

  /// True when any fault can ever fire.
  [[nodiscard]] bool enabled() const noexcept {
    return read_error_rate > 0.0 || short_read_rate > 0.0 ||
           corruption_rate > 0.0 || latency_spike_rate > 0.0 ||
           fail_after_requests != 0;
  }

  [[nodiscard]] FaultDecision decide(std::uint64_t request_index) const;

  /// Registers the --fault-* options used by the example binaries.
  static void register_options(OptionParser& options);
  /// Builds a plan from options registered by register_options().
  static FaultPlan from_options(const OptionParser& options);
};

/// How the IoScheduler recovers from transient faults: bounded retries
/// with exponential backoff under an optional per-request deadline.
struct RetryPolicy {
  int max_attempts = 3;              ///< total tries per request (>= 1)
  double initial_backoff_us = 50.0;  ///< sleep before the first retry
  double backoff_multiplier = 2.0;   ///< growth factor per retry
  double max_backoff_us = 5000.0;    ///< backoff ceiling
  /// Wall-clock budget per request measured from submission; 0 disables.
  /// An expired request fails without further attempts.
  double deadline_seconds = 0.0;

  bool operator==(const RetryPolicy&) const = default;

  /// Backoff before retry number `retry` (1-based), in seconds.
  [[nodiscard]] double backoff_seconds(int retry) const noexcept;

  static void register_options(OptionParser& options);
  static RetryPolicy from_options(const OptionParser& options);
};

}  // namespace sembfs
