#include "numa/partition.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sembfs {
namespace {

TEST(VertexPartition, RangesTileTheVertexSpace) {
  VertexPartition part{100, 4};
  EXPECT_EQ(part.vertex_count(), 100);
  EXPECT_EQ(part.node_count(), 4u);
  std::int64_t covered = 0;
  std::int64_t prev_end = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const VertexRange r = part.range_of(k);
    EXPECT_EQ(r.begin, prev_end);
    covered += r.size();
    prev_end = r.end;
  }
  EXPECT_EQ(covered, 100);
  EXPECT_EQ(prev_end, 100);
}

TEST(VertexPartition, PaperFormulaBoundaries) {
  // Paper: v_i with i in [k*n/l, (k+1)*n/l) goes to node k.
  VertexPartition part{10, 4};
  EXPECT_EQ(part.range_of(0), (VertexRange{0, 2}));   // 0*10/4=0, 1*10/4=2
  EXPECT_EQ(part.range_of(1), (VertexRange{2, 5}));   // 2, 10/2=5
  EXPECT_EQ(part.range_of(2), (VertexRange{5, 7}));
  EXPECT_EQ(part.range_of(3), (VertexRange{7, 10}));
}

class PartitionPropertyTest
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::size_t>> {};

TEST_P(PartitionPropertyTest, NodeOfAgreesWithRanges) {
  const auto [n, nodes] = GetParam();
  VertexPartition part{n, nodes};
  for (std::int64_t v = 0; v < n; ++v) {
    const std::size_t k = part.node_of(v);
    EXPECT_TRUE(part.range_of(k).contains(v))
        << "v=" << v << " claimed by node " << k;
  }
}

TEST_P(PartitionPropertyTest, LocalIndexIsOffsetInRange) {
  const auto [n, nodes] = GetParam();
  VertexPartition part{n, nodes};
  for (std::int64_t v = 0; v < n; ++v) {
    const std::size_t k = part.node_of(v);
    EXPECT_EQ(part.local_index(v), v - part.range_of(k).begin);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionPropertyTest,
    ::testing::Values(std::pair<std::int64_t, std::size_t>{1, 1},
                      std::pair<std::int64_t, std::size_t>{7, 3},
                      std::pair<std::int64_t, std::size_t>{100, 4},
                      std::pair<std::int64_t, std::size_t>{1023, 8},
                      std::pair<std::int64_t, std::size_t>{1024, 8},
                      std::pair<std::int64_t, std::size_t>{1025, 8},
                      std::pair<std::int64_t, std::size_t>{3, 8}));

/// The owner of v by definition: the first node whose bounds hold it.
std::size_t owner_by_scan(const VertexPartition& part, std::int64_t v) {
  const std::vector<std::int64_t>& bounds = part.bounds();
  std::size_t k = 0;
  while (!(bounds[k] <= v && v < bounds[k + 1])) ++k;
  return k;
}

TEST(VertexPartition, NodeOfMatchesLinearScanOfBounds) {
  constexpr std::int64_t kExhaustive = std::int64_t{1} << 18;
  for (const std::int64_t n :
       {std::int64_t{1}, std::int64_t{7}, kExhaustive,
        (std::int64_t{1} << 40) + 3}) {
    for (const std::size_t l : {1U, 3U, 4U, 48U}) {
      const VertexPartition part{n, l};
      std::vector<std::int64_t> probes;
      if (n <= kExhaustive) {
        for (std::int64_t v = 0; v < n; ++v) probes.push_back(v);
      } else {
        // Too many to scan: every boundary and its neighbours, plus a
        // stride through the interior.
        for (const std::int64_t b : part.bounds())
          for (const std::int64_t v : {b - 1, b, b + 1})
            if (v >= 0 && v < n) probes.push_back(v);
        for (std::int64_t v = 0; v < n; v += n / 4099) probes.push_back(v);
      }
      for (const std::int64_t v : probes)
        ASSERT_EQ(part.node_of(v), owner_by_scan(part, v))
            << "n=" << n << " l=" << l << " v=" << v;
    }
  }
}

TEST(VertexPartition, MoreNodesThanVertices) {
  VertexPartition part{3, 8};
  std::int64_t covered = 0;
  for (std::size_t k = 0; k < 8; ++k) covered += part.range_of(k).size();
  EXPECT_EQ(covered, 3);
}

TEST(VertexRange, ContainsAndSize) {
  const VertexRange r{10, 20};
  EXPECT_EQ(r.size(), 10);
  EXPECT_TRUE(r.contains(10));
  EXPECT_TRUE(r.contains(19));
  EXPECT_FALSE(r.contains(20));
  EXPECT_FALSE(r.contains(9));
}

TEST(VertexPartition, EmptyGraph) {
  VertexPartition part{0, 4};
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(part.range_of(k).size(), 0);
}

}  // namespace
}  // namespace sembfs
