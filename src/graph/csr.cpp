#include "graph/csr.hpp"

#include <algorithm>
#include <atomic>

#include "parallel/parallel_for.hpp"
#include "util/contracts.hpp"

namespace sembfs {

namespace {

/// Applies fn(src, dst) for every directed half-edge implied by `e`.
template <typename Fn>
void for_each_direction(const Edge& e, bool undirected, Fn&& fn) {
  fn(e.u, e.v);
  if (undirected && e.u != e.v) fn(e.v, e.u);
}

}  // namespace

Csr build_csr_filtered(const EdgeList& edges, VertexRange sources,
                       VertexRange destinations,
                       const CsrBuildOptions& options, ThreadPool& pool) {
  const Vertex n = edges.vertex_count();
  SEMBFS_EXPECTS(n >= 0);
  SEMBFS_EXPECTS(sources.begin >= 0 && sources.end <= n);
  SEMBFS_EXPECTS(destinations.begin >= 0 && destinations.end <= n);

  Csr csr;
  csr.n_ = n;
  csr.sources_ = sources;
  csr.destinations_ = destinations;

  const std::int64_t local_n = sources.size();
  std::vector<std::atomic<std::int64_t>> counts(
      static_cast<std::size_t>(local_n));
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);

  const auto edge_span = edges.edges();
  const auto accepts = [&](Vertex src, Vertex dst) {
    if (options.remove_self_loops && src == dst) return false;
    return sources.contains(src) && destinations.contains(dst);
  };

  // Pass 1: per-source counts.
  parallel_for_blocked(
      pool, 0, static_cast<std::int64_t>(edge_span.size()),
      [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t i = lo; i < hi; ++i) {
          for_each_direction(
              edge_span[static_cast<std::size_t>(i)], options.undirected,
              [&](Vertex src, Vertex dst) {
                if (accepts(src, dst))
                  counts[static_cast<std::size_t>(src - sources.begin)]
                      .fetch_add(1, std::memory_order_relaxed);
              });
        }
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

  parallel_for_blocked(
      pool, 0, static_cast<std::int64_t>(edge_span.size()),
      [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        for (std::int64_t i = lo; i < hi; ++i) {
          for_each_direction(
              edge_span[static_cast<std::size_t>(i)], options.undirected,
              [&](Vertex src, Vertex dst) {
                if (accepts(src, dst)) {
                  const std::int64_t slot =
                      counts[static_cast<std::size_t>(src - sources.begin)]
                          .fetch_add(1, std::memory_order_relaxed);
                  csr.values_[static_cast<std::size_t>(slot)] = dst;
                }
              });
        }
      });

  if (options.sort_neighbors || options.dedupe) {
    parallel_for_blocked(
        pool, 0, local_n, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::int64_t v = lo; v < hi; ++v) {
            const auto b = csr.values_.begin() + csr.index_[static_cast<std::size_t>(v)];
            const auto e = csr.values_.begin() + csr.index_[static_cast<std::size_t>(v) + 1];
            std::sort(b, e);
          }
        });
  }

  if (options.dedupe) {
    // Compact each sorted adjacency in place, then rebuild index/values.
    std::vector<std::int64_t> new_index(csr.index_.size(), 0);
    for (std::int64_t v = 0; v < local_n; ++v) {
      const auto b = csr.values_.begin() + csr.index_[static_cast<std::size_t>(v)];
      const auto e = csr.values_.begin() + csr.index_[static_cast<std::size_t>(v) + 1];
      new_index[static_cast<std::size_t>(v) + 1] =
          new_index[static_cast<std::size_t>(v)] +
          std::distance(b, std::unique(b, e));
    }
    std::vector<Vertex> new_values(
        static_cast<std::size_t>(new_index.back()));
    for (std::int64_t v = 0; v < local_n; ++v) {
      const std::int64_t count = new_index[static_cast<std::size_t>(v) + 1] -
                                 new_index[static_cast<std::size_t>(v)];
      std::copy_n(csr.values_.begin() + csr.index_[static_cast<std::size_t>(v)],
                  count,
                  new_values.begin() + new_index[static_cast<std::size_t>(v)]);
    }
    csr.index_ = std::move(new_index);
    csr.values_ = std::move(new_values);
  }

  SEMBFS_ENSURES(csr.index_.size() ==
                 static_cast<std::size_t>(local_n) + 1);
  return csr;
}

Csr build_csr_filtered_stream(Vertex vertex_count, const EdgeStream& stream,
                              VertexRange sources, VertexRange destinations,
                              const CsrBuildOptions& options,
                              ThreadPool& pool) {
  SEMBFS_EXPECTS(vertex_count >= 0);
  SEMBFS_EXPECTS(sources.begin >= 0 && sources.end <= vertex_count);
  SEMBFS_EXPECTS(destinations.begin >= 0 &&
                 destinations.end <= vertex_count);
  SEMBFS_EXPECTS(!options.dedupe);  // unsupported on the streaming path

  Csr csr;
  csr.n_ = vertex_count;
  csr.sources_ = sources;
  csr.destinations_ = destinations;

  const std::int64_t local_n = sources.size();
  std::vector<std::atomic<std::int64_t>> counts(
      static_cast<std::size_t>(local_n));
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);

  const auto accepts = [&](Vertex src, Vertex dst) {
    if (options.remove_self_loops && src == dst) return false;
    return sources.contains(src) && destinations.contains(dst);
  };

  // Pass 1: stream batches, count per source in parallel within the batch.
  stream([&](std::span<const Edge> batch) {
    parallel_for_blocked(
        pool, 0, static_cast<std::int64_t>(batch.size()),
        [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::int64_t i = lo; i < hi; ++i) {
            for_each_direction(
                batch[static_cast<std::size_t>(i)], options.undirected,
                [&](Vertex src, Vertex dst) {
                  if (accepts(src, dst))
                    counts[static_cast<std::size_t>(src - sources.begin)]
                        .fetch_add(1, std::memory_order_relaxed);
                });
          }
        });
  });

  csr.index_.assign(static_cast<std::size_t>(local_n) + 1, 0);
  for (std::int64_t v = 0; v < local_n; ++v)
    csr.index_[static_cast<std::size_t>(v) + 1] =
        csr.index_[static_cast<std::size_t>(v)] +
        counts[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);

  // Pass 2: stream again, scatter.
  csr.values_.resize(static_cast<std::size_t>(csr.index_.back()));
  for (std::int64_t v = 0; v < local_n; ++v)
    counts[static_cast<std::size_t>(v)].store(
        csr.index_[static_cast<std::size_t>(v)], std::memory_order_relaxed);

  stream([&](std::span<const Edge> batch) {
    parallel_for_blocked(
        pool, 0, static_cast<std::int64_t>(batch.size()),
        [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::int64_t i = lo; i < hi; ++i) {
            for_each_direction(
                batch[static_cast<std::size_t>(i)], options.undirected,
                [&](Vertex src, Vertex dst) {
                  if (accepts(src, dst)) {
                    const std::int64_t slot =
                        counts[static_cast<std::size_t>(src - sources.begin)]
                            .fetch_add(1, std::memory_order_relaxed);
                    csr.values_[static_cast<std::size_t>(slot)] = dst;
                  }
                });
          }
        });
  });

  if (options.sort_neighbors || options.dedupe) {
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

Csr build_csr(const EdgeList& edges, const CsrBuildOptions& options,
              ThreadPool& pool) {
  const VertexRange all{0, edges.vertex_count()};
  return build_csr_filtered(edges, all, all, options, pool);
}

}  // namespace sembfs
