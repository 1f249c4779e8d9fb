#include "graph/csr.hpp"

#include <algorithm>
#include <atomic>

#include "parallel/parallel_for.hpp"
#include "util/contracts.hpp"

namespace sembfs {

namespace {

/// Streams every edge once and calls fn(local_source, destination) for
/// each directed half-edge the CSR keeps, in parallel within each batch.
/// Each edge is inserted in both directions; self loops are dropped.
template <typename Fn>
void for_each_kept_entry(const EdgeStream& stream, VertexRange sources,
                         VertexRange destinations, ThreadPool& pool,
                         Fn&& fn) {
  const auto visit = [&](Vertex src, Vertex dst) {
    if (sources.contains(src) && destinations.contains(dst))
      fn(src - sources.begin, dst);
  };
  stream([&](std::span<const Edge> batch) {
    parallel_for_blocked(
        pool, 0, static_cast<std::int64_t>(batch.size()),
        [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const Edge& e = batch[static_cast<std::size_t>(i)];
            if (e.u == e.v) continue;
            visit(e.u, e.v);
            visit(e.v, e.u);
          }
        });
  });
}

}  // namespace

EdgeStream one_batch_stream(const EdgeList& edges) {
  return [batch = edges.edges()](
             const std::function<void(std::span<const Edge>)>& sink) {
    sink(batch);
  };
}

Csr build_csr_filtered(Vertex vertex_count, const EdgeStream& stream,
                       VertexRange sources, VertexRange destinations,
                       const CsrBuildOptions& options, ThreadPool& pool) {
  SEMBFS_EXPECTS(vertex_count >= 0);
  SEMBFS_EXPECTS(sources.begin >= 0 && sources.end <= vertex_count);
  SEMBFS_EXPECTS(destinations.begin >= 0 &&
                 destinations.end <= vertex_count);

  Csr csr;
  csr.n_ = vertex_count;
  csr.sources_ = sources;
  csr.destinations_ = destinations;

  const std::int64_t local_n = sources.size();
  std::vector<std::atomic<std::int64_t>> counts(
      static_cast<std::size_t>(local_n));
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);

  // Pass 1: per-source counts.
  for_each_kept_entry(stream, sources, destinations, pool,
                      [&](std::int64_t s, Vertex) {
                        counts[static_cast<std::size_t>(s)].fetch_add(
                            1, std::memory_order_relaxed);
                      });

  // Prefix sum -> index array.
  csr.index_.assign(static_cast<std::size_t>(local_n) + 1, 0);
  for (std::int64_t v = 0; v < local_n; ++v)
    csr.index_[static_cast<std::size_t>(v) + 1] =
        csr.index_[static_cast<std::size_t>(v)] +
        counts[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);

  // Pass 2: scatter. Reuse `counts` as per-source write cursors.
  csr.values_.resize(static_cast<std::size_t>(csr.index_.back()));
  for (std::int64_t v = 0; v < local_n; ++v)
    counts[static_cast<std::size_t>(v)].store(
        csr.index_[static_cast<std::size_t>(v)], std::memory_order_relaxed);

  for_each_kept_entry(stream, sources, destinations, pool,
                      [&](std::int64_t s, Vertex dst) {
                        const std::int64_t slot =
                            counts[static_cast<std::size_t>(s)].fetch_add(
                                1, std::memory_order_relaxed);
                        csr.values_[static_cast<std::size_t>(slot)] = dst;
                      });

  if (options.sort_neighbors) {
    parallel_for_blocked(
        pool, 0, local_n, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::int64_t v = lo; v < hi; ++v) {
            std::sort(
                csr.values_.begin() + csr.index_[static_cast<std::size_t>(v)],
                csr.values_.begin() +
                    csr.index_[static_cast<std::size_t>(v) + 1]);
          }
        });
  }

  return csr;
}

void Csr::order_neighbors_by_rank(std::span<const Vertex> rank,
                                  std::span<const Vertex> by_rank,
                                  ThreadPool& pool) {
  SEMBFS_EXPECTS(rank.size() == static_cast<std::size_t>(n_));
  SEMBFS_EXPECTS(by_rank.size() == rank.size());
  // Each list is translated to ranks, sorted as plain integers and
  // translated back: cheaper than a comparator that looks up two ranks
  // per comparison. Hub lists are long, so chunks are claimed dynamically.
  parallel_for_dynamic(
      pool, 0, sources_.size(), 256,
      [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t v = lo; v < hi; ++v) {
          const auto b = values_.begin() + index_[static_cast<std::size_t>(v)];
          const auto e =
              values_.begin() + index_[static_cast<std::size_t>(v) + 1];
          for (auto it = b; it != e; ++it)
            *it = rank[static_cast<std::size_t>(*it)];
          std::sort(b, e);
          for (auto it = b; it != e; ++it)
            *it = by_rank[static_cast<std::size_t>(*it)];
        }
      });
}

Csr Csr::from_parts(Vertex global_vertex_count, VertexRange sources,
                    VertexRange destinations,
                    std::vector<std::int64_t> index,
                    std::vector<Vertex> values) {
  SEMBFS_EXPECTS(global_vertex_count >= 0);
  SEMBFS_EXPECTS(sources.begin >= 0 && sources.end <= global_vertex_count);
  SEMBFS_EXPECTS(index.size() ==
                 static_cast<std::size_t>(sources.size()) + 1);
  SEMBFS_EXPECTS(index.front() == 0);
  SEMBFS_EXPECTS(index.back() == static_cast<std::int64_t>(values.size()));
  for (std::size_t i = 1; i < index.size(); ++i)
    SEMBFS_EXPECTS(index[i - 1] <= index[i]);
  for (const Vertex v : values)
    SEMBFS_EXPECTS(destinations.contains(v));

  Csr csr;
  csr.n_ = global_vertex_count;
  csr.sources_ = sources;
  csr.destinations_ = destinations;
  csr.index_ = std::move(index);
  csr.values_ = std::move(values);
  return csr;
}

}  // namespace sembfs
