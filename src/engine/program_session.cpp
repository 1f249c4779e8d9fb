#include "engine/program_session.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "util/bitmap.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace sembfs::engine {

namespace {

std::string metric(const char* prefix, const char* suffix) {
  return std::string{prefix} + "." + suffix;
}

}  // namespace

ProgramSession::ProgramSession(VertexProgram& program, GraphStorage storage,
                               const NumaTopology& topology, ThreadPool& pool,
                               const BfsConfig& config)
    : program_(&program),
      topology_(topology),
      pool_(pool),
      config_(config),
      obs_levels_(&obs::metrics().counter(
          metric(program.metric_prefix(), "levels"))),
      obs_top_down_levels_(&obs::metrics().counter(
          metric(program.metric_prefix(), "top_down_levels"))),
      obs_bottom_up_levels_(&obs::metrics().counter(
          metric(program.metric_prefix(), "bottom_up_levels"))),
      obs_degraded_levels_(&obs::metrics().counter(
          metric(program.metric_prefix(), "degraded_levels"))),
      obs_direction_switches_(&obs::metrics().counter(
          metric(program.metric_prefix(), "direction_switches"))),
      obs_io_failures_(&obs::metrics().counter(
          metric(program.metric_prefix(), "io_failures"))),
      obs_level_us_(&obs::metrics().histogram(
          metric(program.metric_prefix(), "level_us"))),
      obs_engine_runs_(&obs::metrics().counter("engine.runs")),
      obs_engine_supersteps_(&obs::metrics().counter("engine.supersteps")),
      obs_engine_io_failures_(&obs::metrics().counter("engine.io_failures")),
      obs_engine_degraded_(
          &obs::metrics().counter("engine.degraded_supersteps")),
      obs_engine_superstep_us_(
          &obs::metrics().histogram("engine.superstep_us")) {
  ctx_.storage = storage;
  ctx_.topology = &topology_;
  ctx_.pool = &pool_;
  ctx_.config = &config_;

  // A program that cannot pull cannot honor a forced bottom-up mode.
  SEMBFS_EXPECTS(program_->supports_pull() ||
                 config_.mode != BfsMode::BottomUpOnly);

  if (config_.trace != nullptr)
    trace_run_ = config_.trace->begin_run(program_->root());
  if (obs::enabled()) {
    obs_engine_runs_->add(1);
    // Label pool workers with their emulated NUMA nodes so parallel-region
    // step times land in per-node histograms (pool.node<k>.step_us).
    std::vector<std::size_t> nodes(pool_.size());
    for (std::size_t w = 0; w < nodes.size(); ++w)
      nodes[w] = std::min(topology_.node_of_worker(w),
                          topology_.node_count() - 1);
    pool_.set_worker_nodes(nodes);
  }

  program_->init(ctx_);
  direction_ = (config_.mode == BfsMode::BottomUpOnly &&
                program_->supports_pull())
                   ? Direction::BottomUp
                   : Direction::TopDown;
  if (config_.policy.kind == PolicyKind::EdgeRatio) {
    const Vertex n = ctx_.vertex_count();
    unvisited_edges_ = with_degree(ctx_.storage, [&](const auto& degree_of) {
      return parallel_reduce<std::int64_t>(
          pool_, 0, n, 0,
          [&](std::int64_t& acc, std::int64_t v) { acc += degree_of(v); },
          [](std::int64_t a, std::int64_t b) { return a + b; });
    });
    active_edges_ = active_edge_sum();
    unvisited_edges_ -= active_edges_;
  }
}

std::int64_t ProgramSession::active_edge_sum() const {
  const ActiveSet* active = program_->active_set();
  return with_degree(ctx_.storage, [&](const auto& degree_of) {
    if (active == nullptr) {
      std::int64_t total = 0;
      for (Vertex v = 0; v < ctx_.vertex_count(); ++v) total += degree_of(v);
      return total;
    }
    const std::span<const std::uint64_t> words = active->bitmap().words();
    return parallel_reduce<std::int64_t>(
        pool_, 0, static_cast<std::int64_t>(words.size()), 0,
        [&](std::int64_t& acc, std::int64_t w) {
          for_each_set_in_word(
              words[static_cast<std::size_t>(w)],
              static_cast<std::size_t>(w) * 64, [&](std::size_t v) {
                acc += degree_of(static_cast<Vertex>(v));
              });
        },
        [](std::int64_t a, std::int64_t b) { return a + b; });
  });
}

bool ProgramSession::step() {
  if (done_) return false;
  if (config_.cancel != nullptr) {
    const StopReason stop = config_.cancel->should_stop();
    if (stop != StopReason::None) {
      stop_reason_ = stop;
      done_ = true;
      return false;
    }
  }
  if (program_->converged(ctx_)) {
    done_ = true;
    return false;
  }
  ActiveSet* const active = program_->active_set();
  if (active != nullptr && active->size() == 0) {
    done_ = true;
    return false;
  }
  const std::int64_t cur_active =
      active != nullptr ? active->size()
                        : static_cast<std::int64_t>(ctx_.vertex_count());

  obs::TraceLog* const trace = config_.trace;
  const double span_start =
      trace != nullptr ? trace->seconds_since_epoch() : 0.0;
  Timer superstep_timer;
  StepResult step_result;
  bool degraded = false;
  if (direction_ == Direction::TopDown) {
    if (auto* const* external =
            std::get_if<ExternalForwardGraph*>(&ctx_.storage.forward))
      prepare_external_storage(**external, config_);
    step_result = program_->step(ctx_, Direction::TopDown);
    scanned_push_ += step_result.scanned_edges;
    io_failures_ += step_result.io_failures;
    if (step_result.io_failed()) {
      if (!program_->supports_degrade()) {
        throw NvmIoError(
            "engine superstep " + std::to_string(superstep_) +
            " of program '" + program_->name() +
            "' exceeded its I/O error budget and the program cannot "
            "degrade");
      }
      // Graceful degradation: redo the incomplete push superstep without
      // forward-graph I/O, keeping whatever the push already applied.
      const StepResult redo = program_->degrade(ctx_);
      step_result.claimed += redo.claimed;
      step_result.claimed_degrees += redo.claimed_degrees;
      step_result.scanned_edges += redo.scanned_edges;
      step_result.nvm_requests += redo.nvm_requests;
      scanned_pull_ += redo.scanned_edges;
      ++degraded_supersteps_;
      degraded = true;
    }
  } else {
    step_result = program_->step(ctx_, Direction::BottomUp);
    scanned_pull_ += step_result.scanned_edges;
    io_failures_ += step_result.io_failures;
  }
  const double seconds = superstep_timer.seconds();
  elapsed_seconds_ += seconds;
  claimed_degrees_ += step_result.claimed_degrees;
  nvm_requests_ += step_result.nvm_requests;

  LevelStats stats;
  stats.level = superstep_;
  stats.direction = direction_;
  stats.frontier_vertices = cur_active;
  stats.claimed_vertices = step_result.claimed;
  stats.scanned_edges = step_result.scanned_edges;
  stats.seconds = seconds;
  stats.avg_degree =
      cur_active > 0 ? static_cast<double>(step_result.scanned_edges) /
                           static_cast<double>(cur_active)
                     : 0.0;
  stats.nvm_requests = step_result.nvm_requests;
  stats.io_failures = step_result.io_failures;
  stats.degraded = degraded;
  superstep_stats_.push_back(stats);

  if (active != nullptr) active->advance(pool_);
  const std::int64_t next_active =
      active != nullptr ? active->size()
                        : static_cast<std::int64_t>(ctx_.vertex_count());

  if (config_.policy.kind == PolicyKind::EdgeRatio) {
    active_edges_ = active_edge_sum();
    unvisited_edges_ -= active_edges_;
  }

  // Built unconditionally: forced modes skip the decision but the trace
  // still records what the policy WOULD have been shown.
  PolicyInput in;
  in.current = stats.direction;
  in.n_all = ctx_.vertex_count();
  in.prev_frontier = cur_active;
  in.cur_frontier = next_active;
  in.frontier_edges = active_edges_;
  in.unvisited_edges = unvisited_edges_;
  const bool policy_evaluated =
      config_.mode == BfsMode::Hybrid && program_->supports_pull();
  if (policy_evaluated)
    direction_ = program_->choose_direction(in, config_.policy);

  if (obs::enabled()) {
    obs_levels_->add(1);
    obs_engine_supersteps_->add(1);
    (stats.direction == Direction::TopDown ? obs_top_down_levels_
                                           : obs_bottom_up_levels_)
        ->add(1);
    if (degraded) {
      obs_degraded_levels_->add(1);
      obs_engine_degraded_->add(1);
    }
    if (stats.io_failures != 0) {
      obs_io_failures_->add(stats.io_failures);
      obs_engine_io_failures_->add(stats.io_failures);
    }
    if (direction_ != stats.direction) obs_direction_switches_->add(1);
    const auto us =
        seconds <= 0.0 ? std::uint64_t{0}
                       : static_cast<std::uint64_t>(seconds * 1e6);
    obs_level_us_->record(us);
    obs_engine_superstep_us_->record(us);
  }
  if (trace != nullptr) {
    obs::TraceSpan span;
    span.run = trace_run_;
    span.root = program_->root();
    span.level = stats.level;
    span.direction = stats.direction;
    span.start_seconds = span_start;
    span.duration_seconds = trace->seconds_since_epoch() - span_start;
    span.stats = stats;
    span.policy_input = in;
    span.decision = direction_;
    span.policy_evaluated = policy_evaluated;
    trace->record(span);
  }

  ++superstep_;
  ctx_.superstep = superstep_;
  if (program_->converged(ctx_) || (active != nullptr && next_active == 0))
    done_ = true;
  return !done_;
}

std::int32_t ProgramSession::run() {
  while (step()) {
  }
  return supersteps_executed();
}

}  // namespace sembfs::engine
