#include "engine/bfs_program.hpp"

#include <string>

#include "engine/program_session.hpp"
#include "util/contracts.hpp"

namespace sembfs::engine {

void BfsProgram::init(EngineContext& ctx) {
  SEMBFS_EXPECTS(root_ >= 0 && root_ < ctx.vertex_count());
  SEMBFS_EXPECTS(status_->vertex_count() == ctx.vertex_count());
  status_->reset(root_);
}

StepResult BfsProgram::step(EngineContext& ctx, Direction direction) {
  const BfsConfig& config = *ctx.config;
  if (direction == Direction::TopDown) {
    // The session already ran prepare_external_storage().
    return top_down_step(ctx.storage, *status_, ctx.superstep,
                         *ctx.topology, *ctx.pool,
                         push_options(config, ctx.storage));
  }
  return bottom_up_step(ctx.storage.backward, *status_, ctx.superstep,
                        *ctx.topology, *ctx.pool, kPullChunk,
                        ctx.storage.delta);
}

bool BfsProgram::converged(const EngineContext& ctx) const {
  (void)ctx;
  return status_->frontier_size() == 0;
}

StepResult BfsProgram::degrade(EngineContext& ctx) {
  if (!attached(ctx.storage.backward)) {
    throw NvmIoError(
        "top-down superstep " + std::to_string(ctx.superstep) +
        " exceeded its I/O error budget and no backward graph is attached "
        "for a degraded bottom-up retry");
  }
  // The partial top-down claims are valid (each vertex was CAS-claimed
  // with a correct parent at this level) and already in the next frontier;
  // the bottom-up sweep skips them via the visited bitmap and ORs the rest
  // into the same next frontier.
  return bottom_up_step(ctx.storage.backward, *status_, ctx.superstep,
                        *ctx.topology, *ctx.pool, kPullChunk,
                        ctx.storage.delta);
}

BfsResult BfsProgram::snapshot_result(const ProgramSession& session) {
  SEMBFS_EXPECTS(status_->holds_tree());
  const GraphStorage& storage = session.context().storage;
  BfsResult result;
  result.root = root_;
  result.seconds = session.seconds();
  result.depth = session.supersteps_executed();
  result.visited = status_->visited_count();
  result.scanned_edges_top_down = session.scanned_edges_push();
  result.scanned_edges_bottom_up = session.scanned_edges_pull();
  result.nvm_requests = session.nvm_requests();
  result.io_failures = session.io_failures();
  result.degraded_levels = session.degraded_supersteps();
  result.degraded = result.degraded_levels > 0;
  result.levels = session.supersteps();
  if (session.done()) {
    status_->take_tree(result.parent, result.level);
  } else {
    result.parent = status_->parent_snapshot();
    result.level = status_->levels();
  }

  // Every visited vertex but the root was claimed by a kernel, which
  // added its degree.
  result.teps_edge_count =
      (session.claimed_degrees() + storage.degree(root_)) / 2;
  result.teps = result.seconds > 0.0
                    ? static_cast<double>(result.teps_edge_count) /
                          result.seconds
                    : 0.0;
  return result;
}

}  // namespace sembfs::engine

namespace sembfs {

HybridBfsRunner::HybridBfsRunner(GraphStorage storage, NumaTopology topology,
                                 ThreadPool& pool)
    : storage_(storage),
      topology_(topology),
      pool_(pool),
      status_(storage.vertex_count()) {
  SEMBFS_EXPECTS(attached(storage_.forward) && attached(storage_.backward));
}

BfsResult HybridBfsRunner::run(Vertex root, const BfsConfig& config) {
  engine::BfsProgram program{status_, root};
  engine::ProgramSession session{program, storage_, topology_, pool_, config};
  session.run();
  return program.snapshot_result(session);
}

}  // namespace sembfs
