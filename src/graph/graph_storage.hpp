// Which concrete graph backs each side of a traversal, and the per-format
// readers every kernel reaches it through.
//
// The paper makes one placement choice per CSR side: the top-down forward
// graph lives in DRAM or on NVM, the bottom-up backward graph in DRAM or
// split first-k-edges-in-DRAM (Section VI-E). Each side here is one
// std::variant over its concrete graphs plus an empty state. Kernels
// dispatch on it once per call (visit_graph), so their inner loops compile
// per format, and reach the adjacency through two overload sets:
//
//   read_batches(partition, reads, next_batch, visit, on_failure)
//       Forward partitions (Csr, ExternalCsrPartition). Drains claimed
//       frontier batches and hands each (vertex, adjacency span) to
//       `visit`. A failed read is contained: `on_failure()` is told and
//       the batch's device-held lists are skipped; nothing throws.
//   visit_neighbors(partition, v, scratch, fn, start)
//       Backward partitions (Csr, HybridBackwardPartition). Calls fn(u) on
//       v's in-neighbors in storage order, from position `start` (default
//       0) on, until fn returns false. Device faults propagate as
//       exceptions.
//
// Both return the device requests they issued (0 for DRAM). Pull sweeps
// call visit_neighbors through the merged-view reader of the pull executor
// (PullReader in bfs/bottom_up.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <variant>
#include <vector>

#include "graph/backward_graph.hpp"
#include "graph/delta_buffer.hpp"
#include "graph/external_csr.hpp"
#include "graph/forward_graph.hpp"
#include "graph/hybrid_csr.hpp"

namespace sembfs {

/// The top-down side: DRAM, or semi-external (simulated NVM, with the
/// lists under the graph's tier limit in DRAM). Empty for backward-only
/// storage (the serving layer's MS-BFS batches).
using ForwardStorage =
    std::variant<std::monostate, const ForwardGraph*, ExternalForwardGraph*>;

/// The bottom-up side: DRAM, or the first k in-edges of every vertex in
/// DRAM and the rest on NVM. Empty for forward-only storage (label
/// propagation, k-hop sessions).
using BackwardStorage =
    std::variant<std::monostate, const BackwardGraph*, HybridBackwardGraph*>;

struct GraphStorage {
  ForwardStorage forward;
  BackwardStorage backward;
  /// Mutation overlay (docs/MUTATIONS.md): when non-null, every kernel
  /// reads adjacency through the merged view — base entries minus
  /// tombstoned pairs, plus inserted neighbors — and degree() applies the
  /// delta's correction. nullptr (the default) is the sealed-graph path
  /// and costs nothing. The buffer must outlive every traversal using
  /// this storage view (snapshots pin it via shared ownership).
  const DeltaBuffer* delta = nullptr;

  [[nodiscard]] Vertex vertex_count() const noexcept;
  /// Full degree of v under the merged view (needed for TEPS accounting
  /// and the EdgeRatio policy). Served from the backward graph when one is
  /// attached (DRAM, one lookup) plus the delta adjustment; forward-only
  /// storage falls back to summing the destination-filtered forward
  /// partition degrees — correct, but it touches every partition and may
  /// issue device I/O for an external forward graph. Loops over
  /// many vertices use with_degree() instead.
  [[nodiscard]] std::int64_t degree(Vertex v) const;
};

/// True when `side` names a graph.
template <typename Side>
[[nodiscard]] bool attached(const Side& side) noexcept {
  return side.index() != 0;
}

/// Calls fn(graph) with the graph `side` names, as its concrete type, and
/// returns fn's result. Throws std::logic_error when the side is empty.
template <typename Side, typename Fn>
decltype(auto) visit_graph(const Side& side, Fn&& fn) {
  using First = std::remove_pointer_t<std::variant_alternative_t<1, Side>>;
  using Result = std::invoke_result_t<Fn&, First&>;
  return std::visit(
      [&](auto graph) -> Result {
        if constexpr (std::is_same_v<decltype(graph), std::monostate>) {
          throw std::logic_error("GraphStorage: no graph attached");
        } else {
          return fn(*graph);
        }
      },
      side);
}

// ---------------------------------------------------------------------------
// Degrees

namespace detail {

inline std::int64_t base_degree(const BackwardGraph& graph, Vertex v) {
  return static_cast<std::int64_t>(graph.neighbors(v).size());
}
inline std::int64_t base_degree(const HybridBackwardGraph& graph, Vertex v) {
  return graph.degree(v);
}

inline std::int64_t partition_degree(const Csr& part, Vertex v) {
  return part.degree(v);
}
inline std::int64_t partition_degree(ExternalCsrPartition& part, Vertex v) {
  return part.degree(v);
}

}  // namespace detail

/// Calls fn(degree_of) once, where degree_of(v) is storage.degree(v)
/// compiled for the attached graph, and returns fn's result — for loops and
/// reductions that ask many vertices' degrees. degree_of is safe to call
/// from several threads at once.
template <typename Fn>
decltype(auto) with_degree(const GraphStorage& storage, Fn&& fn) {
  const DeltaBuffer* const delta = storage.delta;
  const auto adjust = [delta](Vertex v) -> std::int64_t {
    return delta != nullptr ? delta->degree_adjustment(v) : 0;
  };
  if (attached(storage.backward)) {
    return visit_graph(storage.backward, [&](const auto& graph) {
      return fn(
          [&](Vertex v) { return adjust(v) + detail::base_degree(graph, v); });
    });
  }
  // Forward-only: every forward partition is destination-filtered, so the
  // full degree is the sum over partitions.
  return visit_graph(storage.forward, [&](auto& graph) {
    return fn([&](Vertex v) {
      std::int64_t total = adjust(v);
      for (std::size_t k = 0; k < graph.node_count(); ++k)
        total += detail::partition_degree(graph.partition(k), v);
      return total;
    });
  });
}

// ---------------------------------------------------------------------------
// Forward readers

/// What read_batches needs beyond the partition: the I/O scheduler
/// (semi-external only) and the retry policy of every read it posts.
struct ForwardReads {
  IoScheduler* scheduler = nullptr;
  RetryPolicy retry{.max_attempts = 1};
};

/// The reads of one top-down level over `graph`, run by `workers` threads.
template <typename Forward>
ForwardReads forward_reads(Forward& /*graph*/, std::size_t /*workers*/,
                           const RetryPolicy& retry) {
  return {nullptr, retry};
}
/// A semi-external level reads through the graph's one IoScheduler.
inline ForwardReads forward_reads(ExternalForwardGraph& graph,
                                  std::size_t workers,
                                  const RetryPolicy& retry) {
  return {&graph.io_scheduler(workers), retry};
}

/// DRAM: adjacency spans, no I/O.
template <typename NextBatch, typename Visit, typename OnFailure>
std::uint64_t read_batches(const Csr& part, const ForwardReads& /*reads*/,
                           NextBatch&& next_batch, Visit&& visit,
                           OnFailure&& /*on_failure*/) {
  for (std::span<const Vertex> batch = next_batch(); !batch.empty();
       batch = next_batch()) {
    for (const Vertex v : batch) visit(v, part.neighbors(v));
  }
  return 0;
}

/// Semi-external: ExternalCsrPartition::fetch_batches_pipelined, which
/// keeps the next batch's merged reads in flight on `reads.scheduler`.
template <typename NextBatch, typename Visit, typename OnFailure>
std::uint64_t read_batches(ExternalCsrPartition& part,
                           const ForwardReads& reads, NextBatch&& next_batch,
                           Visit&& visit, OnFailure&& on_failure) {
  return part.fetch_batches_pipelined(*reads.scheduler, reads.retry,
                                      next_batch, visit, on_failure);
}

/// One vertex's adjacency in one forward partition, copied into `out`.
/// Returns the device requests issued; a failed read throws.
inline std::uint64_t fetch_neighbors(const Csr& part, Vertex v,
                                     std::vector<Vertex>& out) {
  const std::span<const Vertex> adj = part.neighbors(v);
  out.assign(adj.begin(), adj.end());
  return 0;
}
inline std::uint64_t fetch_neighbors(ExternalCsrPartition& part, Vertex v,
                                     std::vector<Vertex>& out) {
  return part.fetch_neighbors(v, out);
}

// ---------------------------------------------------------------------------
// Backward readers

/// DRAM: one adjacency span, no I/O.
template <typename Fn>
std::uint64_t visit_neighbors(const Csr& part, Vertex v,
                              std::vector<Vertex>& /*scratch*/, Fn&& fn,
                              std::int64_t start = 0) {
  const std::span<const Vertex> adj = part.neighbors(v);
  for (std::size_t i = static_cast<std::size_t>(start); i < adj.size(); ++i)
    if (!fn(adj[i])) break;
  return 0;
}

/// First k in DRAM, the rest streamed from NVM in chunks.
template <typename Fn>
std::uint64_t visit_neighbors(HybridBackwardPartition& part, Vertex v,
                              std::vector<Vertex>& scratch, Fn&& fn,
                              std::int64_t start = 0) {
  return part.visit_neighbors(v, scratch, fn, start);
}

/// v's in-neighbors over a whole backward graph: routed to the partition
/// that owns v.
template <typename Backward, typename Fn>
std::uint64_t visit_in_neighbors(Backward& graph, Vertex v,
                                 std::vector<Vertex>& scratch, Fn&& fn) {
  return visit_neighbors(graph.partition(graph.vertex_partition().node_of(v)),
                         v, scratch, fn);
}

}  // namespace sembfs
