#include "bfs/hybrid_bfs.hpp"

namespace sembfs {

void prepare_external_storage(ExternalForwardGraph& external,
                              const BfsConfig& config) {
  if (config.chunk_cache_bytes != 0) {
    external.enable_chunk_cache(config.chunk_cache_bytes);
    if (config.verify_chunk_checksums)
      external.enable_checksum_verification();
  }
}

PushOptions push_options(const BfsConfig& config,
                         const GraphStorage& storage) {
  PushOptions options;
  options.batch_size = config.batch_size;
  options.retry = config.io_retry;
  options.io_error_budget = config.io_error_budget;
  options.delta = storage.delta;
  return options;
}

}  // namespace sembfs
