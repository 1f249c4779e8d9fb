// The engine's superstep loop. One session runs one VertexProgram over one
// GraphStorage to convergence (or cancellation); every single-root BFS —
// Graph500 runs, serving sessions, k-hop queries — is a BfsProgram under
// this loop. Superstep by superstep it does:
//
//   - cancel/deadline poll at superstep granularity (the preemption point
//     the serving engine relies on),
//   - semi-external storage prep (chunk cache, checksum verification,
//     the graph's I/O scheduler) before push supersteps,
//   - graceful degradation when a push superstep's failed reads exceed
//     the per-level error budget (BfsConfig::io_error_budget, enforced by
//     the push team) and the program can redo it from the backward graph,
//   - advancing the program's active set after each superstep,
//   - per-superstep LevelStats, switch-policy evaluation, obs metrics
//     under the program's prefix plus engine-wide aggregates, and trace
//     spans.
#pragma once

#include <cstdint>
#include <vector>

#include "bfs/cancel.hpp"
#include "engine/vertex_program.hpp"
#include "obs/metrics.hpp"

namespace sembfs::engine {

class ProgramSession {
 public:
  /// Borrows `program` (init() is called here); storage/topology/pool and
  /// the config must outlive the session.
  ProgramSession(VertexProgram& program, GraphStorage storage,
                 const NumaTopology& topology, ThreadPool& pool,
                 const BfsConfig& config);

  /// Executes ONE superstep. Returns true while the program can continue;
  /// false once converged, cancelled, or past its deadline. No-op after
  /// done().
  bool step();

  /// Steps to completion. Returns the number of supersteps executed.
  std::int32_t run();

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] StopReason stop_reason() const noexcept {
    return stop_reason_;
  }
  /// The superstep step() would execute next (1 after construction).
  [[nodiscard]] std::int32_t next_superstep() const noexcept {
    return superstep_;
  }
  /// Supersteps executed so far.
  [[nodiscard]] std::int32_t supersteps_executed() const noexcept {
    return superstep_ - 1;
  }
  [[nodiscard]] Direction next_direction() const noexcept {
    return direction_;
  }
  [[nodiscard]] const std::vector<LevelStats>& supersteps() const noexcept {
    return superstep_stats_;
  }
  [[nodiscard]] double seconds() const noexcept { return elapsed_seconds_; }
  [[nodiscard]] std::int64_t scanned_edges_push() const noexcept {
    return scanned_push_;
  }
  [[nodiscard]] std::int64_t scanned_edges_pull() const noexcept {
    return scanned_pull_;
  }
  /// Sum of StepResult::claimed_degrees over the supersteps so far (degree
  /// redos included).
  [[nodiscard]] std::int64_t claimed_degrees() const noexcept {
    return claimed_degrees_;
  }
  [[nodiscard]] std::uint64_t nvm_requests() const noexcept {
    return nvm_requests_;
  }
  [[nodiscard]] std::uint64_t io_failures() const noexcept {
    return io_failures_;
  }
  [[nodiscard]] std::int32_t degraded_supersteps() const noexcept {
    return degraded_supersteps_;
  }
  [[nodiscard]] const EngineContext& context() const noexcept { return ctx_; }

 private:
  /// Degree sum over the current active set (EdgeRatio policy bookkeeping).
  [[nodiscard]] std::int64_t active_edge_sum() const;

  VertexProgram* program_;
  NumaTopology topology_;  ///< by value: ctor arg may be a temporary
  ThreadPool& pool_;
  BfsConfig config_;
  EngineContext ctx_;

  Direction direction_ = Direction::TopDown;
  std::int32_t superstep_ = 1;
  bool done_ = false;
  StopReason stop_reason_ = StopReason::None;
  double elapsed_seconds_ = 0.0;
  std::int64_t scanned_push_ = 0;
  std::int64_t scanned_pull_ = 0;
  std::int64_t claimed_degrees_ = 0;
  std::uint64_t nvm_requests_ = 0;
  std::uint64_t io_failures_ = 0;
  std::int32_t degraded_supersteps_ = 0;
  std::int64_t active_edges_ = 0;
  std::int64_t unvisited_edges_ = 0;
  std::vector<LevelStats> superstep_stats_;

  /// Run id within config_.trace (0 when tracing is off).
  int trace_run_ = 0;

  // Per-program-prefix observability handles, resolved at construction.
  obs::Counter* obs_levels_;
  obs::Counter* obs_top_down_levels_;
  obs::Counter* obs_bottom_up_levels_;
  obs::Counter* obs_degraded_levels_;
  obs::Counter* obs_direction_switches_;
  obs::Counter* obs_io_failures_;
  obs::Histogram* obs_level_us_;
  // Engine-wide aggregates across all programs.
  obs::Counter* obs_engine_runs_;
  obs::Counter* obs_engine_supersteps_;
  obs::Counter* obs_engine_io_failures_;
  obs::Counter* obs_engine_degraded_;
  obs::Histogram* obs_engine_superstep_us_;
};

}  // namespace sembfs::engine
