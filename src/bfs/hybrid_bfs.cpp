#include "bfs/hybrid_bfs.hpp"

#include "util/contracts.hpp"

namespace sembfs {

Vertex GraphStorage::vertex_count() const noexcept {
  if (backward_dram != nullptr) return backward_dram->vertex_count();
  if (backward_hybrid != nullptr) return backward_hybrid->vertex_count();
  if (forward_dram != nullptr) return forward_dram->vertex_count();
  if (forward_external != nullptr) return forward_external->vertex_count();
  if (forward_tiered != nullptr) return forward_tiered->vertex_count();
  return 0;
}

std::int64_t GraphStorage::degree(Vertex v) const {
  // The delta's correction (inserted copies minus tombstone-hidden base
  // copies) applies uniformly: every backend below reports base entries.
  const std::int64_t adjust =
      delta != nullptr ? delta->degree_adjustment(v) : 0;
  if (backward_dram != nullptr)
    return adjust +
           static_cast<std::int64_t>(backward_dram->neighbors(v).size());
  if (backward_hybrid != nullptr) return adjust + backward_hybrid->degree(v);
  // Forward-only storage: every forward partition is destination-filtered,
  // so the full degree is the sum over partitions.
  if (forward_dram != nullptr) {
    std::int64_t total = 0;
    for (std::size_t k = 0; k < forward_dram->node_count(); ++k) {
      total += static_cast<std::int64_t>(
          forward_dram->partition(k).neighbors(v).size());
    }
    return adjust + total;
  }
  if (forward_external != nullptr) {
    std::int64_t total = 0;
    for (std::size_t k = 0; k < forward_external->node_count(); ++k)
      total += forward_external->partition(k).degree(v);
    return adjust + total;
  }
  if (forward_tiered != nullptr) {
    std::int64_t total = 0;
    std::vector<Vertex> scratch;
    for (std::size_t k = 0; k < forward_tiered->node_count(); ++k) {
      forward_tiered->partition(k).fetch_neighbors(v, scratch);
      total += static_cast<std::int64_t>(scratch.size());
    }
    return adjust + total;
  }
  SEMBFS_ASSERT(!"GraphStorage::degree: no graph attached");
  return 0;
}

void prepare_external_storage(ExternalForwardGraph& external,
                              const BfsConfig& config) {
  if (config.chunk_cache_bytes != 0) {
    external.enable_chunk_cache(config.chunk_cache_bytes);
    if (config.verify_chunk_checksums)
      external.enable_checksum_verification();
  }
}

ExternalTopDownOptions external_step_options(const BfsConfig& config) {
  ExternalTopDownOptions options;
  options.batch_size = config.batch_size;
  options.retry = config.io_retry;
  options.io_error_budget = config.io_error_budget;
  return options;
}

}  // namespace sembfs
