// BFS-distance statistics: hop-distance histogram over sampled sources,
// mean distance, median, and the effective diameter (the 90th-percentile
// pairwise hop distance commonly reported for social networks).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/bfs_program.hpp"
#include "graph/types.hpp"

namespace sembfs {

struct DistanceStats {
  /// histogram[d] = number of (sampled source, reachable vertex) pairs at
  /// hop distance d.
  std::vector<std::int64_t> histogram;
  std::int64_t sampled_sources = 0;
  std::int64_t reachable_pairs = 0;
  double mean_distance = 0.0;
  std::int32_t median_distance = 0;
  /// Smallest d such that >= 90% of reachable pairs are within d hops.
  std::int32_t effective_diameter = 0;
  /// Largest observed finite distance across the samples.
  std::int32_t max_observed = 0;
};

/// Runs one BFS per source through `runner` and accumulates the histogram.
DistanceStats sample_distances(HybridBfsRunner& runner,
                               std::span<const Vertex> sources,
                               const BfsConfig& config = {});

/// Folds a single BFS level array into an existing histogram (exposed for
/// callers that already have BFS results).
void accumulate_levels(std::span<const std::int32_t> levels,
                       std::vector<std::int64_t>& histogram);

/// Computes the derived statistics from a filled histogram.
DistanceStats summarize_histogram(std::vector<std::int64_t> histogram,
                                  std::int64_t sampled_sources);

}  // namespace sembfs
