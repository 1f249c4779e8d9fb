#include "bfs/top_down.hpp"

namespace sembfs {

StepResult top_down_step(const GraphStorage& storage, BfsStatus& status,
                         std::int32_t level, const NumaTopology& topology,
                         ThreadPool& pool, const PushOptions& options) {
  // One output buffer (merged on the pool) and one claimed-degree sum per
  // participating worker.
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  std::vector<std::vector<Vertex>> buffers(workers);
  struct alignas(64) DegreeSum {
    std::int64_t value = 0;
  };
  std::vector<DegreeSum> degrees(workers);
  StepResult result = with_degree(storage, [&](const auto& degree_of) {
    return scatter_active(
        storage.forward, status.frontier(), topology, pool, options,
        [&](std::size_t w, Vertex v, std::span<const Vertex> adj) {
          std::vector<Vertex>& out = buffers[w];
          for (const Vertex dst : adj) {
            if (!status.is_visited(dst) && status.claim(dst, v, level)) {
              out.push_back(dst);
              degrees[w].value += degree_of(dst);
            }
          }
        });
  });
  for (std::size_t w = 0; w < workers; ++w) {
    result.claimed += static_cast<std::int64_t>(buffers[w].size());
    result.claimed_degrees += degrees[w].value;
  }
  status.set_next_merged(buffers, pool);
  return result;
}

}  // namespace sembfs
