#include "bfs/top_down.hpp"

namespace sembfs {

StepResult top_down_step(const GraphStorage& storage, BfsStatus& status,
                         std::int32_t level, const NumaTopology& topology,
                         ThreadPool& pool, const PushOptions& options) {
  // One claim count and claimed-degree sum per participating worker.
  const std::size_t workers =
      std::min<std::size_t>(pool.size(), topology.total_threads());
  struct alignas(64) Claims {
    std::int64_t vertices = 0;
    std::int64_t degrees = 0;
  };
  std::vector<Claims> claims(workers);
  Bitmap& next = status.next_frontier();
  StepResult result = with_degree(storage, [&](const auto& degree_of) {
    return scatter_active(
        storage.forward, status.frontier_queue(pool), topology, pool,
        options, [&](std::size_t w, Vertex v, std::span<const Vertex> adj) {
          Claims& mine = claims[w];
          for (const Vertex dst : adj) {
            if (!status.is_visited(dst) && status.claim(dst, v, level)) {
              next.set_atomic(static_cast<std::size_t>(dst));
              ++mine.vertices;
              mine.degrees += degree_of(dst);
            }
          }
        });
  });
  for (const Claims& c : claims) {
    result.claimed += c.vertices;
    result.claimed_degrees += c.degrees;
  }
  return result;
}

}  // namespace sembfs
