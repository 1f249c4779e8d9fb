// One constructed Graph500 problem instance under a storage scenario:
// Steps 1 (edge list) and 2 (graph construction + offload) done once, ready
// to serve repeated Step 3/4 (BFS + validation) runs — which is how the
// alpha/beta sweep benches avoid rebuilding the graph per configuration.
//
// With `offload_edge_list` set, Step 1 writes the packed edge list to its
// own simulated NVM device and frees the DRAM copy; Step 2 then constructs
// both graphs by *streaming* the edge list back from NVM, and Step 4
// validates against the NVM-resident list — the exact flow of the paper's
// Section V-A (the edge list and the CSR graphs live on different devices,
// as in its Section VI-D measurement setup).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/bfs_program.hpp"
#include "bfs/reference_bfs.hpp"
#include "bfs/validate.hpp"
#include "graph/backward_graph.hpp"
#include "graph/external_csr.hpp"
#include "graph/external_edge_list.hpp"
#include "graph/forward_graph.hpp"
#include "graph/hybrid_csr.hpp"
#include "graph/kronecker.hpp"
#include "graph500/scenario.hpp"
#include "numa/topology.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs {

struct InstanceConfig {
  KroneckerParams kronecker;
  Scenario scenario = Scenario::dram_only();
  std::size_t numa_nodes = 4;
  std::string workdir = "/tmp/sembfs";
  std::uint32_t chunk_bytes = 4096;  ///< NVM read chunk (paper: 4 KiB)
  /// On-NVM adjacency layout for the offloaded forward graph (and the
  /// hybrid backward remainder): raw 8-byte entries or delta/varint blobs.
  ChunkFormat chunk_format = ChunkFormat::kRaw;
  /// Step 1 offload: edge list on its own NVM device, Step 2 streams it.
  bool offload_edge_list = false;
};

class Graph500Instance {
 public:
  /// Generates the edge list and constructs all graphs per the scenario.
  Graph500Instance(InstanceConfig config, ThreadPool& pool);

  [[nodiscard]] const InstanceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] Vertex vertex_count() const noexcept { return vertex_count_; }
  /// In-memory edge list; only available without offload_edge_list.
  [[nodiscard]] const EdgeList& edge_list() const;
  /// NVM-resident edge list; only available with offload_edge_list.
  [[nodiscard]] ExternalEdgeList* external_edge_list() noexcept {
    return external_edges_.get();
  }
  [[nodiscard]] const NumaTopology& topology() const noexcept {
    return topology_;
  }

  [[nodiscard]] double generation_seconds() const noexcept {
    return generation_seconds_;
  }
  [[nodiscard]] double construction_seconds() const noexcept {
    return construction_seconds_;
  }

  /// DRAM bytes of graph data: the forward graph if resident, plus the
  /// backward DRAM tier with its summary arrays (hub array and degree-0
  /// mask; a hybrid backward graph keeps only the mask).
  [[nodiscard]] std::uint64_t graph_dram_bytes() const noexcept;
  /// NVM bytes of graph data (not counting the offloaded edge list).
  /// With chunk_format = kVarint this is the *encoded* footprint.
  [[nodiscard]] std::uint64_t graph_nvm_bytes() const noexcept;
  /// What the same NVM-resident graph data would occupy uncompressed
  /// (equals graph_nvm_bytes() under kRaw); the compression-ratio
  /// denominator for the bytes-per-edge reports.
  [[nodiscard]] std::uint64_t graph_nvm_raw_bytes() const noexcept;

  /// The simulated NVM device holding the CSR graphs (null in DRAM-only
  /// scenarios). The offloaded edge list lives on a *separate* device.
  [[nodiscard]] NvmDevice* nvm_device() noexcept { return device_.get(); }
  [[nodiscard]] NvmDevice* edge_list_device() noexcept {
    return edge_device_.get();
  }

  /// Storage handles for a HybridBfsRunner.
  [[nodiscard]] GraphStorage storage() noexcept { return storage_; }

  /// Runs one BFS and returns its full result.
  BfsResult run_bfs(Vertex root, const BfsConfig& bfs_config);

  /// Graph500 Step 4 on a BFS result (streams from NVM when offloaded).
  ValidationResult validate(const BfsResult& result);

  /// Picks `count` distinct roots with degree >= 1 (Graph500 rule).
  std::vector<Vertex> select_roots(int count, std::uint64_t seed) const;

  /// Whole-graph CSR (built lazily; used by the reference baseline and
  /// degree analyses).
  const Csr& full_csr();

  /// Partially-offloaded backward graph (Section VI-E); only present when
  /// scenario.backward_dram_edges >= 0.
  [[nodiscard]] HybridBackwardGraph* hybrid_backward() noexcept {
    return hybrid_backward_.get();
  }
  [[nodiscard]] ExternalForwardGraph* external_forward() noexcept {
    return external_forward_.get();
  }
  /// Backward graph in DRAM; null under a hybrid scenario (the DRAM graph
  /// is released once the hybrid one is built from it).
  [[nodiscard]] const BackwardGraph* backward() const noexcept {
    return backward_dram_ ? &*backward_dram_ : nullptr;
  }
  /// Forward graph in DRAM; null after offload (the DRAM copy is released,
  /// which is the point of the technique).
  [[nodiscard]] const ForwardGraph* forward_dram() const noexcept {
    return forward_dram_ ? &*forward_dram_ : nullptr;
  }

 private:
  [[nodiscard]] EdgeStream edge_stream();

  InstanceConfig config_;
  ThreadPool& pool_;
  NumaTopology topology_;
  Vertex vertex_count_ = 0;
  std::optional<EdgeList> edges_;
  std::shared_ptr<NvmDevice> edge_device_;
  std::unique_ptr<ExternalEdgeList> external_edges_;
  std::optional<ForwardGraph> forward_dram_;
  std::optional<BackwardGraph> backward_dram_;
  std::shared_ptr<NvmDevice> device_;
  std::unique_ptr<ExternalForwardGraph> external_forward_;
  std::unique_ptr<HybridBackwardGraph> hybrid_backward_;
  GraphStorage storage_;  // the backends above that traversals read
  std::unique_ptr<HybridBfsRunner> runner_;
  std::optional<Csr> full_csr_;
  double generation_seconds_ = 0.0;
  double construction_seconds_ = 0.0;
};

}  // namespace sembfs
