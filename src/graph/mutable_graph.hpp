// The mutable graph layer: log-structured edge updates over the sealed
// semi-external CSR storage, with snapshot-isolated publication
// (docs/MUTATIONS.md).
//
// Layering:
//  - The *base* is a generation of immutable storage backends, rebuilt
//    from the canonical edge list only by compaction: the configured
//    forward graph (DRAM / semi-external), the canonical DRAM backward
//    graph, and optionally the hybrid backward graph. External
//    generations write their chunk files into a fresh
//    <workdir>/gen<k> directory, checksummed at offload time exactly like
//    the sealed build path.
//  - Every apply() folds the whole pending op log into one immutable
//    DeltaBuffer and publishes a new GraphSnapshot sharing the current
//    base — no chunk I/O on the write path.
//  - compact() folds the pending log into the canonical edge list,
//    rebuilds the base backends into the next generation directory,
//    publishes a snapshot with an empty delta, and only then retires the
//    previous generation's files (readers pinning the old snapshot keep
//    its backends alive through shared ownership; the directory is
//    removed when the last pinned snapshot of that base dies).
//
// Snapshot isolation contract: snapshot() hands out an immutable view;
// in-flight traversals keep the shared_ptr for their whole run and are
// never migrated. New admissions call snapshot() again and see the latest
// version. Publication is a single shared_ptr store under a mutex —
// readers never block writers beyond that store.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "graph/backward_graph.hpp"
#include "graph/delta_buffer.hpp"
#include "graph/edge_list.hpp"
#include "graph/external_csr.hpp"
#include "graph/forward_graph.hpp"
#include "graph/graph_storage.hpp"
#include "graph/hybrid_csr.hpp"
#include "nvm/chunk_format.hpp"
#include "nvm/nvm_device.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs {

/// Which forward-graph backend each base generation builds.
enum class MutableForwardKind {
  kDram,      ///< ForwardGraph (no device)
  kExternal,  ///< ExternalForwardGraph (lists over the tier limit on NVM)
};

struct MutableGraphConfig {
  MutableForwardKind forward = MutableForwardKind::kDram;
  std::size_t numa_nodes = 4;
  /// Generation directories gen0, gen1, ... are created under here.
  /// Required for kExternal / hybrid-backward generations.
  std::string workdir;
  /// Shared device for offloaded backends (required when any backend
  /// offloads; every generation writes to the same simulated device).
  std::shared_ptr<NvmDevice> device;
  std::uint32_t chunk_bytes = 4096;
  ChunkFormat chunk_format = ChunkFormat::kRaw;
  /// kExternal only: adjacency lists of at most this many entries stay in
  /// DRAM (ExternalForwardGraph's tier limit; 0 offloads them all).
  std::int64_t tier_limit = 0;
  /// >= 0: also build a HybridBackwardGraph keeping this many DRAM edges
  /// per vertex (the canonical DRAM backward graph is always built — it
  /// is the delta's base-count oracle and the repair kernel's adjacency).
  std::int64_t backward_dram_edges = -1;
};

/// One immutable base generation: the storage backends rebuilt by the
/// last compaction. Shared by every snapshot published on top of it; the
/// generation directory is removed when the last owner releases it.
class BaseGeneration {
 public:
  BaseGeneration() = default;
  ~BaseGeneration();
  BaseGeneration(const BaseGeneration&) = delete;
  BaseGeneration& operator=(const BaseGeneration&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] Vertex vertex_count() const noexcept {
    return backward_->vertex_count();
  }
  /// The canonical complete per-vertex base adjacency (in == out for the
  /// undirected graphs): the base-count oracle and repair adjacency.
  [[nodiscard]] const BackwardGraph& backward() const noexcept {
    return *backward_;
  }

 private:
  friend class MutableGraph;
  friend class GraphSnapshot;
  std::uint64_t id_ = 0;
  std::string dir_;  // empty: nothing on disk to retire
  std::unique_ptr<ForwardGraph> forward_dram_;
  std::unique_ptr<ExternalForwardGraph> forward_external_;
  std::unique_ptr<BackwardGraph> backward_;
  std::unique_ptr<HybridBackwardGraph> backward_hybrid_;
  /// The backends above that kernels read: one forward, one backward.
  GraphStorage sides_;
};

/// One published version of the graph: a base generation plus the delta
/// layered over it. Immutable; pin it (keep the shared_ptr) for the whole
/// traversal and every kernel reads one consistent merged view.
class GraphSnapshot {
 public:
  /// Monotonic publication counter (0 = the initial sealed graph).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t base_id() const noexcept { return base_->id(); }
  [[nodiscard]] Vertex vertex_count() const noexcept {
    return base_->vertex_count();
  }
  /// True when the merged view equals the base (empty delta) — analytics
  /// that cannot read through a delta require this.
  [[nodiscard]] bool compacted() const noexcept {
    return delta_ == nullptr || delta_->empty();
  }
  [[nodiscard]] const DeltaBuffer* delta() const noexcept {
    return delta_ != nullptr && !delta_->empty() ? delta_.get() : nullptr;
  }
  [[nodiscard]] const BaseGeneration& base() const noexcept { return *base_; }

  /// The kernel-facing view: base backends plus the delta overlay. The
  /// returned struct borrows from this snapshot — keep the snapshot alive
  /// for as long as the storage view is in use.
  [[nodiscard]] GraphStorage storage() const noexcept;

 private:
  friend class MutableGraph;
  std::uint64_t version_ = 0;
  std::shared_ptr<BaseGeneration> base_;
  std::shared_ptr<const DeltaBuffer> delta_;  // may be null (sealed view)
};

/// Statistics over the mutation log (runner/bench reporting).
struct MutableGraphStats {
  std::uint64_t version = 0;        ///< latest published version
  std::uint64_t base_id = 0;        ///< generation of the current base
  std::uint64_t compactions = 0;    ///< compact() calls so far
  std::size_t pending_ops = 0;      ///< ops since the last compaction
  std::size_t delta_inserts = 0;    ///< surviving insert ops in the delta
  std::size_t delta_removes = 0;    ///< tombstoned pairs in the delta
  std::uint64_t delta_bytes = 0;    ///< DeltaBuffer DRAM footprint
  std::size_t base_edges = 0;       ///< canonical edge list size
};

/// The mutable graph: canonical edge list + pending op log + published
/// snapshot chain. Writers (apply/compact) serialize on an internal
/// mutex; snapshot() is safe from any thread.
class MutableGraph {
 public:
  /// Seals `base` (vertex IDs in [0, vertex_count)) and builds generation
  /// 0. The pool is borrowed for this and every later rebuild.
  MutableGraph(EdgeList base, MutableGraphConfig config, ThreadPool& pool);
  ~MutableGraph();

  MutableGraph(const MutableGraph&) = delete;
  MutableGraph& operator=(const MutableGraph&) = delete;

  /// Latest published version. O(1); never blocks on a rebuild.
  [[nodiscard]] std::shared_ptr<const GraphSnapshot> snapshot() const;

  /// Appends `ops` to the pending log, folds the whole log into a fresh
  /// DeltaBuffer over the current base, and publishes the new snapshot.
  /// Returns the published version.
  std::uint64_t apply(std::span<const EdgeOp> ops);

  /// Folds the pending log into the canonical edge list, rebuilds the
  /// base backends into the next generation directory, and publishes a
  /// compacted snapshot (empty delta). No-op (returns the current
  /// version) when nothing is pending. Old generations' files are retired
  /// once their last pinned snapshot dies.
  std::uint64_t compact();

  /// Registered hook runs after every publication (apply and compact),
  /// outside the writer lock, with the fresh snapshot. The serving engine
  /// uses it to bump/migrate its result cache.
  using PublishHook =
      std::function<void(const std::shared_ptr<const GraphSnapshot>&)>;
  void set_publish_hook(PublishHook hook);

  [[nodiscard]] MutableGraphStats stats() const;
  [[nodiscard]] Vertex vertex_count() const noexcept { return vertex_count_; }
  /// Canonical sealed edge list of the *current base* (compaction folds
  /// pending ops into it). Reference stays valid until the next compact().
  [[nodiscard]] const EdgeList& base_edges() const noexcept { return base_; }

 private:
  std::shared_ptr<BaseGeneration> build_generation(std::uint64_t id) const;
  void publish(std::shared_ptr<const GraphSnapshot> snap);

  EdgeList base_;
  MutableGraphConfig config_;
  ThreadPool& pool_;
  Vertex vertex_count_ = 0;

  /// Serializes whole writer operations (apply/compact, publish hook
  /// included) so hooks observe versions in publication order.
  std::mutex writer_mutex_;
  /// Guards the published pointer and the log/stat fields below; held
  /// only for O(1) reads/stores, never across a rebuild or hook.
  mutable std::mutex mutex_;
  std::shared_ptr<const GraphSnapshot> current_;
  std::vector<EdgeOp> pending_;
  std::uint64_t next_version_ = 1;
  std::uint64_t next_base_id_ = 1;
  std::uint64_t compactions_ = 0;
  PublishHook publish_hook_;
};

}  // namespace sembfs
