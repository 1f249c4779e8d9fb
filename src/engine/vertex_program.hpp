// The vertex-program contract: what the semi-external engine runs.
//
// A VertexProgram is a level-synchronous computation expressed as
// supersteps over one GraphStorage — the same forward (DRAM /
// semi-external) and backward (DRAM / hybrid) sides the hybrid
// BFS uses. Push supersteps run the shared executor scatter_active
// (bfs/top_down.hpp) with a program visitor; pull supersteps dispatch on
// the backward side once and read it through visit_neighbors
// (graph/graph_storage.hpp). The ProgramSession drives the loop; the
// program supplies the per-superstep work:
//
//   init()              sizes and seeds per-vertex state
//   active_set()        the frontier (a current/next bitmap ActiveSet), or
//                       nullptr for always-all-active programs (PageRank,
//                       triangle counting)
//   step(ctx, dir)      one superstep in the given direction; push
//                       (TopDown) scans active vertices over the forward
//                       partitions, pull (BottomUp) sweeps the backward
//                       graph
//   converged(ctx)      authoritative termination, checked before every
//                       superstep (frontier-driven programs converge when
//                       the set empties; PageRank keeps a tolerance,
//                       triangle counting a cursor)
//   degrade(ctx)        redo a push superstep that exceeded its I/O error
//                       budget without forward-graph I/O (the BFS/CC/PR
//                       fallback: a backward-graph pull)
//
// Direction selection generalizes the BFS switch policy: in Hybrid mode
// the session builds the BFS PolicyInput (active counts standing in for
// frontier counts) and asks choose_direction();
// the default defers to the configured SwitchPolicy, and push-only
// programs simply pin TopDown. Forced modes in BfsConfig bypass the hook.
//
// Containment contract: step() must never let a device exception cross
// the thread-pool boundary. Forward-side (push) failures are contained
// into StepResult::io_failures / aborted — the session then degrades or
// throws NvmIoError. Backward-side (pull/degrade) failures may propagate
// as NvmIoError, exactly like the BFS degrade path.
#pragma once

#include <cstdint>

#include "bfs/bottom_up.hpp"
#include "bfs/hybrid_bfs.hpp"
#include "bfs/level_stats.hpp"
#include "bfs/policy.hpp"
#include "bfs/top_down.hpp"
#include "engine/active_set.hpp"
#include "graph/types.hpp"
#include "numa/topology.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs::engine {

/// Everything a program needs to run one superstep. Owned by the
/// ProgramSession; pointers are non-null for the session's lifetime.
struct EngineContext {
  GraphStorage storage;
  const NumaTopology* topology = nullptr;
  ThreadPool* pool = nullptr;
  const BfsConfig* config = nullptr;
  /// 1-based superstep the next step() executes (the BFS level number).
  std::int32_t superstep = 1;

  [[nodiscard]] Vertex vertex_count() const noexcept {
    return storage.vertex_count();
  }
};

class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Prefix for the session's per-program obs metrics ("<prefix>.levels",
  /// "<prefix>.level_us", ...). The BFS program returns "bfs" so the
  /// engine emits the exact counter names the obs CI job asserts;
  /// analytics programs use "engine.<name>".
  [[nodiscard]] virtual const char* metric_prefix() const noexcept = 0;

  /// Root/seed vertex recorded in trace spans (kNoVertex when the program
  /// has no single seed).
  [[nodiscard]] virtual Vertex root() const noexcept { return kNoVertex; }

  /// Sizes and seeds per-vertex state from ctx.storage. Called once by
  /// the session constructor; must leave active_set() (if any) seeded.
  virtual void init(EngineContext& ctx) = 0;

  /// The program's frontier, or nullptr when every vertex is (implicitly)
  /// active each superstep. Steps write the next set; the session advances
  /// it after each step.
  [[nodiscard]] virtual ActiveSet* active_set() noexcept = 0;

  /// Whether the program implements the pull (BottomUp) direction.
  /// Push-only programs are never asked to pull, and Hybrid mode pins
  /// them to TopDown (BfsMode::BottomUpOnly is rejected for them).
  [[nodiscard]] virtual bool supports_pull() const noexcept { return true; }

  /// Hybrid-mode direction choice for the coming superstep. `in` is the
  /// generalized policy input (active counts as frontier counts). The
  /// default defers to the configured switch policy.
  [[nodiscard]] virtual Direction choose_direction(
      const PolicyInput& in, const SwitchPolicy& policy) {
    return policy.decide(in);
  }

  /// Executes one superstep. Push failures must be contained into the
  /// result (see the containment contract above).
  virtual StepResult step(EngineContext& ctx, Direction direction) = 0;

  /// Authoritative termination, checked before each superstep (i.e. after
  /// the previous step's active-set advance).
  [[nodiscard]] virtual bool converged(const EngineContext& ctx) const = 0;

  /// Whether degrade() can redo a failed push superstep. Programs whose
  /// push result cannot be reconstructed without the forward graph return
  /// false; the session then surfaces NvmIoError.
  [[nodiscard]] virtual bool supports_degrade() const noexcept {
    return false;
  }

  /// Completes the current superstep without forward-graph I/O after a
  /// contained push failure (throws NvmIoError when no backward graph is
  /// attached). Only called when supports_degrade() is true.
  virtual StepResult degrade(EngineContext& ctx) {
    (void)ctx;
    return {};
  }
};

}  // namespace sembfs::engine
