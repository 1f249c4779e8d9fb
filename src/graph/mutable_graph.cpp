#include "graph/mutable_graph.hpp"

#include <algorithm>
#include <utility>

#include "graph/compaction.hpp"
#include "nvm/storage_file.hpp"
#include "util/contracts.hpp"
#include "util/logging.hpp"

namespace sembfs {

BaseGeneration::~BaseGeneration() {
  // Close every backend (chunk files, checksum sidecars) before retiring
  // the generation directory they live in.
  backward_hybrid_.reset();
  forward_external_.reset();
  forward_dram_.reset();
  backward_.reset();
  if (!dir_.empty()) remove_directory_recursive(dir_);
}

GraphStorage GraphSnapshot::storage() const noexcept {
  GraphStorage s = base_->sides_;
  s.delta = delta();
  return s;
}

MutableGraph::MutableGraph(EdgeList base, MutableGraphConfig config,
                           ThreadPool& pool)
    : base_(std::move(base)), config_(std::move(config)), pool_(pool) {
  vertex_count_ = base_.vertex_count();
  SEMBFS_EXPECTS(vertex_count_ > 0);
  SEMBFS_EXPECTS(config_.numa_nodes >= 1);
  const bool offloads = config_.forward != MutableForwardKind::kDram ||
                        config_.backward_dram_edges >= 0;
  SEMBFS_EXPECTS(!offloads ||
                 (config_.device != nullptr && !config_.workdir.empty()));

  auto snap = std::make_shared<GraphSnapshot>();
  snap->version_ = 0;
  snap->base_ = build_generation(0);
  current_ = std::move(snap);
}

MutableGraph::~MutableGraph() = default;

std::shared_ptr<BaseGeneration> MutableGraph::build_generation(
    std::uint64_t id) const {
  auto gen = std::make_shared<BaseGeneration>();
  gen->id_ = id;

  const VertexPartition partition{vertex_count_, config_.numa_nodes};
  CsrBuildOptions options;  // undirected, self-loop-free (defaults)
  auto forward = std::make_unique<ForwardGraph>(
      ForwardGraph::build(base_, partition, options, pool_));
  gen->backward_ = std::make_unique<BackwardGraph>(
      BackwardGraph::build(base_, partition, options, pool_));

  const bool offloads = config_.forward != MutableForwardKind::kDram ||
                        config_.backward_dram_edges >= 0;
  if (offloads) {
    gen->dir_ = config_.workdir + "/gen" + std::to_string(id);
    ensure_directory(gen->dir_);
  }
  switch (config_.forward) {
    case MutableForwardKind::kDram:
      gen->forward_dram_ = std::move(forward);
      gen->sides_.forward = gen->forward_dram_.get();
      break;
    case MutableForwardKind::kExternal:
      gen->forward_external_ = std::make_unique<ExternalForwardGraph>(
          *forward, config_.device, gen->dir_, config_.chunk_bytes,
          config_.chunk_format, config_.tier_limit);
      gen->sides_.forward = gen->forward_external_.get();
      break;  // the DRAM copy dies with `forward` — the offload's purpose
  }
  gen->sides_.backward = gen->backward_.get();
  if (config_.backward_dram_edges >= 0) {
    gen->backward_hybrid_ = std::make_unique<HybridBackwardGraph>(
        *gen->backward_, config_.backward_dram_edges, config_.device,
        gen->dir_, config_.chunk_bytes, config_.chunk_format);
    gen->sides_.backward = gen->backward_hybrid_.get();
  }
  return gen;
}

std::shared_ptr<const GraphSnapshot> MutableGraph::snapshot() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return current_;
}

void MutableGraph::set_publish_hook(PublishHook hook) {
  std::lock_guard<std::mutex> lock{writer_mutex_};
  publish_hook_ = std::move(hook);
}

void MutableGraph::publish(std::shared_ptr<const GraphSnapshot> snap) {
  {
    std::lock_guard<std::mutex> lock{mutex_};
    current_ = snap;
  }
  if (publish_hook_) publish_hook_(snap);
}

std::uint64_t MutableGraph::apply(std::span<const EdgeOp> ops) {
  std::lock_guard<std::mutex> writer{writer_mutex_};
  std::shared_ptr<BaseGeneration> base;
  std::vector<EdgeOp> log;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    pending_.insert(pending_.end(), ops.begin(), ops.end());
    log = pending_;
    base = current_->base_;
  }
  // Fold the whole pending log (ops apply in order across batches) into
  // one immutable DeltaBuffer over the shared base. The base-count oracle
  // is the canonical DRAM backward graph: complete per-vertex adjacency,
  // multi-edge copies included.
  const BackwardGraph& backward = *base->backward_;
  auto delta = std::make_shared<DeltaBuffer>(DeltaBuffer::build(
      vertex_count_, log, [&](Vertex u, Vertex w) -> std::int64_t {
        const std::span<const Vertex> adj = backward.neighbors(u);
        return static_cast<std::int64_t>(std::count(adj.begin(), adj.end(), w));
      }));

  auto snap = std::make_shared<GraphSnapshot>();
  snap->base_ = std::move(base);
  snap->delta_ = std::move(delta);
  {
    std::lock_guard<std::mutex> lock{mutex_};
    snap->version_ = next_version_++;
  }
  const std::uint64_t version = snap->version_;
  publish(std::move(snap));
  return version;
}

std::uint64_t MutableGraph::compact() {
  std::lock_guard<std::mutex> writer{writer_mutex_};
  std::shared_ptr<const GraphSnapshot> before;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    before = current_;
    if (pending_.empty()) return before->version_;
  }
  // The published delta IS the folded pending log (apply rebuilds it from
  // the full log every time), so compaction folds it directly.
  const DeltaBuffer* delta = before->delta();
  SEMBFS_ASSERT(delta != nullptr);
  base_ = fold_delta(base_, *delta);

  std::uint64_t base_id;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    base_id = next_base_id_++;
  }
  auto snap = std::make_shared<GraphSnapshot>();
  snap->base_ = build_generation(base_id);
  {
    std::lock_guard<std::mutex> lock{mutex_};
    snap->version_ = next_version_++;
    pending_.clear();
    ++compactions_;
  }
  const std::uint64_t version = snap->version_;
  SEMBFS_LOG_INFO(
      "compaction: gen%llu -> gen%llu (%llu edges, version %llu)",
      static_cast<unsigned long long>(before->base_id()),
      static_cast<unsigned long long>(base_id),
      static_cast<unsigned long long>(base_.edge_count()),
      static_cast<unsigned long long>(version));
  publish(std::move(snap));
  return version;
}

MutableGraphStats MutableGraph::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  MutableGraphStats s;
  s.version = current_->version_;
  s.base_id = current_->base_->id_;
  s.compactions = compactions_;
  s.pending_ops = pending_.size();
  s.base_edges = base_.edge_count();
  if (const DeltaBuffer* delta = current_->delta(); delta != nullptr) {
    s.delta_inserts = delta->inserted_edges().size();
    s.delta_removes = delta->removed_edges().size();
    s.delta_bytes = delta->byte_size();
  }
  return s;
}

}  // namespace sembfs
