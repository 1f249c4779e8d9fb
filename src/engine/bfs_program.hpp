// BFS as a vertex program — the library's one single-root traversal.
//
// Graph500 runs, serving sessions, k-hop queries and distance sampling all
// run a BfsProgram stepped by engine::ProgramSession. The program
// delegates every superstep to the two level kernels — top_down_step over
// the forward storage, bottom_up_step over the backward storage — on a
// caller-owned BfsStatus; the loop around the kernels (cancel polls,
// frontier advance, I/O prep, degradation, the switch policy,
// LevelStats, metrics and trace spans) is the session's. HybridBfsRunner
// below is the whole-traversal convenience: one reused status, one
// program + session per root.
#pragma once

#include "bfs/bfs_status.hpp"
#include "engine/vertex_program.hpp"

namespace sembfs::engine {

class ProgramSession;

class BfsProgram final : public VertexProgram {
 public:
  /// Borrows `status` (init() resets it to `root`); the caller keeps
  /// ownership, so one status block serves many searches — the runner's,
  /// or a serving-engine slot. One search at a time per status.
  BfsProgram(BfsStatus& status, Vertex root) : status_(&status), root_(root) {}

  [[nodiscard]] const char* name() const noexcept override { return "bfs"; }
  /// "bfs" on purpose: the session then emits the exact bfs.* counter
  /// names the obs CI job asserts.
  [[nodiscard]] const char* metric_prefix() const noexcept override {
    return "bfs";
  }
  [[nodiscard]] Vertex root() const noexcept override { return root_; }

  void init(EngineContext& ctx) override;
  [[nodiscard]] ActiveSet* active_set() noexcept override {
    return &status_->active_set();
  }
  StepResult step(EngineContext& ctx, Direction direction) override;
  [[nodiscard]] bool converged(const EngineContext& ctx) const override;
  [[nodiscard]] bool supports_degrade() const noexcept override {
    return true;
  }
  StepResult degrade(EngineContext& ctx) override;

  /// Assembles the BfsResult for whatever `session` (the session driving
  /// this program) has traversed so far — valid both after completion and
  /// mid-search (k-hop truncation). `seconds` covers step() work only.
  /// Once session.done(), the status hands its parent and level arrays
  /// over to the result (BfsStatus::take_tree) instead of copying them, so
  /// a second call on a done session fails a precondition; mid-search the
  /// arrays are copied and the session may go on.
  [[nodiscard]] BfsResult snapshot_result(const ProgramSession& session);

 private:
  BfsStatus* status_;
  Vertex root_;
};

}  // namespace sembfs::engine

namespace sembfs {

/// Whole traversals over one storage view with both sides attached: each
/// run() steps a BfsProgram to completion under a ProgramSession, reusing
/// one BfsStatus across roots.
class HybridBfsRunner {
 public:
  HybridBfsRunner(GraphStorage storage, NumaTopology topology,
                  ThreadPool& pool);

  /// Runs one BFS from `root`. Reusable across roots (status is reset).
  BfsResult run(Vertex root, const BfsConfig& config);

 private:
  GraphStorage storage_;
  NumaTopology topology_;
  ThreadPool& pool_;
  BfsStatus status_;
};

}  // namespace sembfs
