#include "analytics/components.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "engine/components_program.hpp"
#include "engine/program_session.hpp"
#include "graph/forward_graph.hpp"
#include "numa/topology.hpp"
#include "util/contracts.hpp"

namespace sembfs {

namespace {

void finalize_stats(ComponentsResult& result) {
  std::map<Vertex, std::int64_t> sizes;
  for (const Vertex l : result.label) ++sizes[l];
  result.component_count = static_cast<std::int64_t>(sizes.size());
  result.largest_size = 0;
  result.isolated_count = 0;
  for (const auto& [label, size] : sizes) {
    if (size > result.largest_size) {
      result.largest_size = size;
      result.largest_label = label;
    }
    if (size == 1) ++result.isolated_count;
  }
}

}  // namespace

std::int64_t ComponentsResult::size_of(Vertex v) const {
  SEMBFS_EXPECTS(v >= 0 && v < static_cast<Vertex>(label.size()));
  const Vertex target = label[static_cast<std::size_t>(v)];
  return static_cast<std::int64_t>(
      std::count(label.begin(), label.end(), target));
}

std::vector<std::pair<Vertex, std::int64_t>>
ComponentsResult::component_sizes() const {
  std::map<Vertex, std::int64_t> sizes;
  for (const Vertex l : label) ++sizes[l];
  std::vector<std::pair<Vertex, std::int64_t>> out(sizes.begin(),
                                                   sizes.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

ComponentsResult components_bfs(const Csr& csr) {
  const Vertex n = csr.global_vertex_count();
  SEMBFS_EXPECTS(csr.source_range().begin == 0 &&
                 csr.source_range().end == n);

  ComponentsResult result;
  result.label.assign(static_cast<std::size_t>(n), kNoVertex);

  std::vector<Vertex> queue;
  for (Vertex root = 0; root < n; ++root) {
    if (result.label[static_cast<std::size_t>(root)] != kNoVertex) continue;
    // BFS flood fill labelled with the smallest vertex of the component —
    // which is `root`, since we scan roots in increasing order.
    result.label[static_cast<std::size_t>(root)] = root;
    queue.clear();
    queue.push_back(root);
    std::size_t head = 0;
    while (head < queue.size()) {
      const Vertex v = queue[head++];
      for (const Vertex w : csr.neighbors(v)) {
        if (result.label[static_cast<std::size_t>(w)] == kNoVertex) {
          result.label[static_cast<std::size_t>(w)] = root;
          queue.push_back(w);
        }
      }
    }
  }
  finalize_stats(result);
  return result;
}

ComponentsResult components_label_propagation(const Csr& csr,
                                              ThreadPool& pool) {
  const Vertex n = csr.global_vertex_count();
  SEMBFS_EXPECTS(csr.source_range().begin == 0 &&
                 csr.source_range().end == n);

  // Engine-backed since the vertex-program extraction: the whole-graph
  // CSR becomes a single-partition forward graph (one transient copy —
  // this helper serves DRAM-sized graphs) and the frontier-driven
  // ComponentsProgram replaces the bespoke propagation loop. Push-only
  // keeps the storage to that single forward copy; labels are identical
  // to the components_bfs oracle either way.
  ForwardGraph forward = ForwardGraph::wrap_whole(csr);
  GraphStorage storage;
  storage.forward = &forward;
  const NumaTopology topology{1, std::max<std::size_t>(pool.size(), 1)};
  BfsConfig config;
  config.mode = BfsMode::TopDownOnly;

  engine::ComponentsProgram program;
  engine::ProgramSession session{program, storage, topology, pool, config};
  session.run();

  ComponentsResult result;
  result.iterations = session.supersteps_executed();
  result.label = program.labels();
  finalize_stats(result);
  return result;
}

}  // namespace sembfs
