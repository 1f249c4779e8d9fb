#include "graph/graph_storage.hpp"

namespace sembfs {

Vertex GraphStorage::vertex_count() const noexcept {
  const auto count = [](const auto& graph) { return graph.vertex_count(); };
  if (attached(backward)) return visit_graph(backward, count);
  if (attached(forward)) return visit_graph(forward, count);
  return 0;
}

std::int64_t GraphStorage::degree(Vertex v) const {
  return with_degree(*this,
                     [v](const auto& degree_of) { return degree_of(v); });
}

}  // namespace sembfs
