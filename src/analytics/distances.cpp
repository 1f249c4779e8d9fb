#include "analytics/distances.hpp"

#include "util/contracts.hpp"

namespace sembfs {

void accumulate_levels(std::span<const std::int32_t> levels,
                       std::vector<std::int64_t>& histogram) {
  for (const std::int32_t level : levels) {
    if (level < 0) continue;  // unreached
    if (histogram.size() <= static_cast<std::size_t>(level))
      histogram.resize(static_cast<std::size_t>(level) + 1, 0);
    ++histogram[static_cast<std::size_t>(level)];
  }
}

DistanceStats summarize_histogram(std::vector<std::int64_t> histogram,
                                  std::int64_t sampled_sources) {
  DistanceStats stats;
  stats.histogram = std::move(histogram);
  stats.sampled_sources = sampled_sources;

  std::int64_t pairs = 0;
  double weighted = 0.0;
  for (std::size_t d = 0; d < stats.histogram.size(); ++d) {
    pairs += stats.histogram[d];
    weighted += static_cast<double>(stats.histogram[d]) *
                static_cast<double>(d);
    if (stats.histogram[d] > 0)
      stats.max_observed = static_cast<std::int32_t>(d);
  }
  stats.reachable_pairs = pairs;
  if (pairs == 0) return stats;
  stats.mean_distance = weighted / static_cast<double>(pairs);

  // Median and effective diameter from the cumulative distribution.
  std::int64_t cumulative = 0;
  bool median_found = false;
  for (std::size_t d = 0; d < stats.histogram.size(); ++d) {
    cumulative += stats.histogram[d];
    if (!median_found && 2 * cumulative >= pairs) {
      stats.median_distance = static_cast<std::int32_t>(d);
      median_found = true;
    }
    if (10 * cumulative >= 9 * pairs) {
      stats.effective_diameter = static_cast<std::int32_t>(d);
      break;
    }
  }
  return stats;
}

DistanceStats sample_distances(HybridBfsRunner& runner,
                               std::span<const Vertex> sources,
                               const BfsConfig& config) {
  SEMBFS_EXPECTS(!sources.empty());
  std::vector<std::int64_t> histogram;
  for (const Vertex source : sources)
    accumulate_levels(runner.run(source, config).level, histogram);
  return summarize_histogram(std::move(histogram),
                             static_cast<std::int64_t>(sources.size()));
}

}  // namespace sembfs
