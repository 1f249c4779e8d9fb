#include "graph500/instance.hpp"

#include <algorithm>
#include <unordered_set>

#include "nvm/storage_file.hpp"
#include "util/contracts.hpp"
#include "util/logging.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace sembfs {

EdgeStream Graph500Instance::edge_stream() {
  if (external_edges_ == nullptr) return one_batch_stream(*edges_);
  return [this](const std::function<void(std::span<const Edge>)>& sink) {
    external_edges_->for_each_batch(1 << 18, sink);
  };
}

Graph500Instance::Graph500Instance(InstanceConfig config, ThreadPool& pool)
    : config_(std::move(config)),
      pool_(pool),
      topology_(NumaTopology::with_total_threads(config_.numa_nodes,
                                                 pool.size())) {
  vertex_count_ = config_.kronecker.vertex_count();

  // Step 1: edge list generation (+ optional offload to its own device).
  Timer gen_timer;
  EdgeList generated = generate_kronecker(config_.kronecker, pool_);
  if (config_.offload_edge_list) {
    ensure_directory(config_.workdir);
    // The paper isolates the edge list and the CSR data on different
    // devices (Section VI-D), so BFS-phase iostat is not polluted by
    // validation traffic.
    edge_device_ =
        std::make_shared<NvmDevice>(config_.scenario.effective_profile());
    external_edges_ = std::make_unique<ExternalEdgeList>(
        edge_device_, config_.workdir + "/edge_list.packed", vertex_count_);
    external_edges_->append_all(generated);
    generated = EdgeList{};  // release the DRAM copy
  } else {
    edges_.emplace(std::move(generated));
  }
  generation_seconds_ = gen_timer.seconds();

  // Step 2: graph construction (+ offload per scenario). Both graphs are
  // built from edge_stream(): streamed back from NVM when the edge list is
  // offloaded, one batch from DRAM otherwise. The forward graph is built,
  // offloaded and released before the backward graph is built, so the two
  // DRAM CSRs never coexist when the forward side goes to NVM.
  Timer build_timer;
  const VertexPartition partition{vertex_count_, config_.numa_nodes};
  const CsrBuildOptions options;  // unsorted lists
  const EdgeStream stream = edge_stream();
  const Scenario& scenario = config_.scenario;
  const bool needs_device =
      scenario.offload_forward || scenario.backward_dram_edges >= 0;
  if (needs_device) {
    ensure_directory(config_.workdir);
    device_ = std::make_shared<NvmDevice>(scenario.effective_profile());
  }

  forward_dram_.emplace(
      ForwardGraph::build(vertex_count_, stream, partition, options, pool_));
  storage_.forward = &*forward_dram_;
  if (scenario.offload_forward) {
    external_forward_ = std::make_unique<ExternalForwardGraph>(
        *forward_dram_, device_, config_.workdir, config_.chunk_bytes,
        config_.chunk_format);
    forward_dram_.reset();  // release the DRAM copy — the offload's purpose
    storage_.forward = external_forward_.get();
    SEMBFS_LOG_INFO("forward graph offloaded to %s (%llu bytes, %s chunks)",
                    device_->profile().name.c_str(),
                    static_cast<unsigned long long>(
                        external_forward_->nvm_byte_size()),
                    std::string(to_string(config_.chunk_format)).c_str());
  }

  backward_dram_.emplace(
      BackwardGraph::build(vertex_count_, stream, partition, options, pool_));
  storage_.backward = &*backward_dram_;
  if (scenario.backward_dram_edges >= 0) {
    hybrid_backward_ = std::make_unique<HybridBackwardGraph>(
        *backward_dram_, scenario.backward_dram_edges, device_,
        config_.workdir, config_.chunk_bytes, config_.chunk_format);
    backward_dram_.reset();  // the hybrid graph keeps its own DRAM prefix
    storage_.backward = hybrid_backward_.get();
  }
  construction_seconds_ = build_timer.seconds();

  runner_ = std::make_unique<HybridBfsRunner>(storage_, topology_, pool_);
}

const EdgeList& Graph500Instance::edge_list() const {
  SEMBFS_EXPECTS(edges_.has_value());
  return *edges_;
}

std::uint64_t Graph500Instance::graph_dram_bytes() const noexcept {
  // The backward CSR plus its hub array and degree-0 mask; a hybrid
  // backward graph replaces all three with its DRAM prefix and the mask.
  std::uint64_t total =
      backward_dram_.has_value()
          ? backward_dram_->byte_size() + backward_dram_->summary_byte_size()
          : hybrid_backward_->dram_byte_size();
  if (forward_dram_.has_value()) total += forward_dram_->byte_size();
  return total;
}

std::uint64_t Graph500Instance::graph_nvm_bytes() const noexcept {
  std::uint64_t total = 0;
  if (external_forward_ != nullptr) total += external_forward_->nvm_byte_size();
  if (hybrid_backward_ != nullptr) total += hybrid_backward_->nvm_byte_size();
  return total;
}

std::uint64_t Graph500Instance::graph_nvm_raw_bytes() const noexcept {
  std::uint64_t total = 0;
  if (external_forward_ != nullptr) total += external_forward_->raw_byte_size();
  if (hybrid_backward_ != nullptr)
    total += hybrid_backward_->nvm_raw_byte_size();
  return total;
}

BfsResult Graph500Instance::run_bfs(Vertex root, const BfsConfig& bfs_config) {
  return runner_->run(root, bfs_config);
}

ValidationResult Graph500Instance::validate(const BfsResult& result) {
  if (external_edges_ != nullptr)
    return validate_bfs(*external_edges_, result.root, result.parent,
                        result.level);
  return validate_bfs(*edges_, result.root, result.parent, result.level);
}

std::vector<Vertex> Graph500Instance::select_roots(int count,
                                                   std::uint64_t seed) const {
  SEMBFS_EXPECTS(count >= 1);
  // Degree check without requiring the full CSR: either backward graph
  // answers a degree from DRAM.
  const auto has_edges = [&](Vertex v) { return storage_.degree(v) > 0; };
  std::vector<Vertex> roots;
  std::unordered_set<Vertex> chosen;
  Xoroshiro128 rng{derive_seed(seed, 0x526f6f74)};  // "Root"
  const auto n = static_cast<std::uint64_t>(vertex_count_);
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = 100 * n + 1000;
  while (roots.size() < static_cast<std::size_t>(count) &&
         attempts < max_attempts) {
    ++attempts;
    const auto v = static_cast<Vertex>(rng.next_below(n));
    if (!has_edges(v) || chosen.contains(v)) continue;
    chosen.insert(v);
    roots.push_back(v);
  }
  SEMBFS_ENSURES(!roots.empty());
  return roots;
}

const Csr& Graph500Instance::full_csr() {
  if (!full_csr_.has_value()) {
    const VertexRange all{0, vertex_count_};
    full_csr_.emplace(build_csr_filtered(vertex_count_, edge_stream(), all,
                                         all, CsrBuildOptions{}, pool_));
  }
  return *full_csr_;
}

}  // namespace sembfs
