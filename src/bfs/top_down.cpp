#include "bfs/top_down.hpp"

namespace sembfs {

StepResult top_down_step(const ForwardStorage& forward, BfsStatus& status,
                         std::int32_t level, const NumaTopology& topology,
                         ThreadPool& pool, const PushOptions& options) {
  // One output buffer per participating worker, merged on the pool.
  std::vector<std::vector<Vertex>> buffers(
      std::min<std::size_t>(pool.size(), topology.total_threads()));
  StepResult result = scatter_active(
      forward, status.frontier(), topology, pool, options,
      [&](std::size_t w, Vertex v, std::span<const Vertex> adj) {
        std::vector<Vertex>& out = buffers[w];
        for (const Vertex dst : adj) {
          if (!status.is_visited(dst) && status.claim(dst, v, level))
            out.push_back(dst);
        }
      });
  for (const std::vector<Vertex>& out : buffers)
    result.claimed += static_cast<std::int64_t>(out.size());
  status.set_next_merged(buffers, pool);
  return result;
}

}  // namespace sembfs
