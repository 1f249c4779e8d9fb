#include "analytics/distances.hpp"

#include <gtest/gtest.h>

#include "graph_fixtures.hpp"

namespace sembfs {
namespace {

class DistancesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = fixtures::path_graph(8);
    partition_ = VertexPartition{8, 2};
    forward_ = ForwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                   pool_);
    backward_ = BackwardGraph::build(edges_, partition_, CsrBuildOptions{},
                                     pool_);
    GraphStorage storage;
    storage.forward = &forward_;
    storage.backward = &backward_;
    runner_ = std::make_unique<HybridBfsRunner>(storage, NumaTopology{2, 2},
                                                pool_);
  }

  ThreadPool pool_{4};
  EdgeList edges_;
  VertexPartition partition_;
  ForwardGraph forward_;
  BackwardGraph backward_;
  std::unique_ptr<HybridBfsRunner> runner_;
};

TEST_F(DistancesTest, PathGraphFromEndpoint) {
  const std::vector<Vertex> sources = {0};
  const DistanceStats stats = sample_distances(*runner_, sources);
  // Distances 0..7, one vertex each.
  ASSERT_EQ(stats.histogram.size(), 8u);
  for (const auto count : stats.histogram) EXPECT_EQ(count, 1);
  EXPECT_EQ(stats.reachable_pairs, 8);
  EXPECT_DOUBLE_EQ(stats.mean_distance, 3.5);
  EXPECT_EQ(stats.median_distance, 3);
  EXPECT_EQ(stats.max_observed, 7);
  EXPECT_EQ(stats.effective_diameter, 7);  // ceil-90% of 8 pairs needs d=7
}

TEST_F(DistancesTest, MultipleSourcesAccumulate) {
  const std::vector<Vertex> sources = {0, 7};
  const DistanceStats stats = sample_distances(*runner_, sources);
  EXPECT_EQ(stats.sampled_sources, 2);
  EXPECT_EQ(stats.reachable_pairs, 16);
  EXPECT_DOUBLE_EQ(stats.mean_distance, 3.5);  // symmetric
}

TEST(AccumulateLevels, SkipsUnreached) {
  std::vector<std::int64_t> histogram;
  const std::vector<std::int32_t> levels = {0, 1, -1, 2, 1, -1};
  accumulate_levels(levels, histogram);
  ASSERT_EQ(histogram.size(), 3u);
  EXPECT_EQ(histogram[0], 1);
  EXPECT_EQ(histogram[1], 2);
  EXPECT_EQ(histogram[2], 1);
}

TEST(SummarizeHistogram, EmptyHistogram) {
  const DistanceStats stats = summarize_histogram({}, 3);
  EXPECT_EQ(stats.reachable_pairs, 0);
  EXPECT_EQ(stats.mean_distance, 0.0);
  EXPECT_EQ(stats.sampled_sources, 3);
}

TEST(SummarizeHistogram, EffectiveDiameterAt90thPercentile) {
  // 100 pairs: 50 at d=1, 39 at d=2, 11 at d=3 -> 89% within 2, 100%
  // within 3: effective diameter = 3.
  const DistanceStats stats = summarize_histogram({0, 50, 39, 11}, 1);
  EXPECT_EQ(stats.effective_diameter, 3);
  // 90 within 2 -> exactly 90%: effective diameter = 2.
  const DistanceStats exact = summarize_histogram({0, 50, 40, 10}, 1);
  EXPECT_EQ(exact.effective_diameter, 2);
}

TEST(SummarizeHistogram, MedianFromCumulative) {
  const DistanceStats stats = summarize_histogram({1, 1, 6, 1, 1}, 1);
  EXPECT_EQ(stats.median_distance, 2);
}

TEST_F(DistancesTest, StarGraphTwoHopWorld) {
  const EdgeList star = fixtures::star_graph(32);
  const VertexPartition partition{32, 2};
  const ForwardGraph fg =
      ForwardGraph::build(star, partition, CsrBuildOptions{}, pool_);
  const BackwardGraph bg =
      BackwardGraph::build(star, partition, CsrBuildOptions{}, pool_);
  GraphStorage storage;
  storage.forward = &fg;
  storage.backward = &bg;
  HybridBfsRunner runner{storage, NumaTopology{2, 2}, pool_};
  const std::vector<Vertex> sources = {5};  // a leaf
  const DistanceStats stats = sample_distances(runner, sources);
  EXPECT_EQ(stats.max_observed, 2);
  EXPECT_EQ(stats.histogram[1], 1);   // the hub
  EXPECT_EQ(stats.histogram[2], 30);  // the other leaves
}

}  // namespace
}  // namespace sembfs
