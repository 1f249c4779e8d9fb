#include "graph/relabel.hpp"

#include <algorithm>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "util/contracts.hpp"

namespace sembfs {

std::vector<Vertex> Relabeling::restore_vertex_array(
    std::span<const Vertex> by_new_id, bool values_are_vertices) const {
  SEMBFS_EXPECTS(by_new_id.size() == old_id.size());
  std::vector<Vertex> by_old(by_new_id.size());
  for (std::size_t new_v = 0; new_v < by_new_id.size(); ++new_v) {
    Vertex value = by_new_id[new_v];
    if (values_are_vertices && value != kNoVertex)
      value = to_old(value);
    by_old[static_cast<std::size_t>(old_id[new_v])] = value;
  }
  return by_old;
}

std::vector<std::int32_t> Relabeling::restore_level_array(
    std::span<const std::int32_t> by_new_id) const {
  SEMBFS_EXPECTS(by_new_id.size() == old_id.size());
  std::vector<std::int32_t> by_old(by_new_id.size());
  for (std::size_t new_v = 0; new_v < by_new_id.size(); ++new_v)
    by_old[static_cast<std::size_t>(old_id[new_v])] = by_new_id[new_v];
  return by_old;
}

std::vector<Vertex> degree_order(std::span<const std::int64_t> degree,
                                 ThreadPool& pool) {
  // Sorting (-degree, id) pairs orders by degree descending, then ID, and
  // keeps the comparisons free of indirect loads.
  using Key = std::pair<std::int64_t, Vertex>;
  const auto n = static_cast<std::int64_t>(degree.size());
  std::vector<Key> keys(degree.size());
  parallel_for(pool, 0, n, [&](std::int64_t v) {
    keys[static_cast<std::size_t>(v)] = {-degree[static_cast<std::size_t>(v)],
                                         v};
  });

  constexpr std::int64_t kMinRun = 4096;
  const std::size_t runs = static_cast<std::size_t>(std::clamp<std::int64_t>(
      n / kMinRun, 1, static_cast<std::int64_t>(pool.size())));
  std::vector<std::int64_t> cut(runs + 1);
  for (std::size_t r = 0; r <= runs; ++r)
    cut[r] = n * static_cast<std::int64_t>(r) / static_cast<std::int64_t>(runs);
  const auto at = [&](std::vector<Key>& array, std::size_t r) {
    return array.begin() + cut[r];
  };
  pool.run(runs,
           [&](std::size_t r) { std::sort(at(keys, r), at(keys, r + 1)); });
  // Neighbouring runs merge pairwise into a second array allocated here:
  // a merge buffer allocated on a pool thread would stay in that thread's
  // malloc arena after the build.
  std::vector<Key> merged(runs > 1 ? keys.size() : 0);
  for (std::size_t width = 1; width < runs; width *= 2) {
    const std::size_t merges = (runs + 2 * width - 1) / (2 * width);
    pool.run(merges, [&](std::size_t m) {
      const std::size_t lo = 2 * width * m;
      const std::size_t mid = std::min(lo + width, runs);
      const std::size_t hi = std::min(lo + 2 * width, runs);
      std::merge(at(keys, lo), at(keys, mid), at(keys, mid), at(keys, hi),
                 at(merged, lo));
    });
    keys.swap(merged);
  }

  std::vector<Vertex> order(degree.size());
  parallel_for(pool, 0, n, [&](std::int64_t r) {
    order[static_cast<std::size_t>(r)] =
        keys[static_cast<std::size_t>(r)].second;
  });
  return order;
}

Relabeling degree_order_relabeling(const EdgeList& edges, ThreadPool& pool) {
  const Vertex n = edges.vertex_count();
  SEMBFS_EXPECTS(n >= 0);

  std::vector<std::int64_t> degree(static_cast<std::size_t>(n), 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    ++degree[static_cast<std::size_t>(e.u)];
    ++degree[static_cast<std::size_t>(e.v)];
  }

  Relabeling map;
  map.old_id = degree_order(degree, pool);
  map.new_id.resize(static_cast<std::size_t>(n));
  for (Vertex new_v = 0; new_v < n; ++new_v)
    map.new_id[static_cast<std::size_t>(map.old_id[new_v])] = new_v;
  return map;
}

EdgeList apply_relabeling(const EdgeList& edges, const Relabeling& map) {
  SEMBFS_EXPECTS(map.new_id.size() ==
                 static_cast<std::size_t>(edges.vertex_count()));
  EdgeList renamed{edges.vertex_count()};
  renamed.reserve(edges.edge_count());
  for (const Edge& e : edges)
    renamed.add(map.to_new(e.u), map.to_new(e.v));
  return renamed;
}

}  // namespace sembfs
