#include "bfs/bfs_status.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace sembfs {
namespace {

TEST(BfsStatus, ResetSeedsRoot) {
  BfsStatus status{10};
  status.reset(3);
  EXPECT_EQ(status.parent(3), 3);
  EXPECT_EQ(status.level(3), 0);
  EXPECT_TRUE(status.is_visited(3));
  EXPECT_TRUE(status.in_frontier(3));
  EXPECT_EQ(status.frontier_size(), 1);
  EXPECT_EQ(status.frontier()[0], 3);
  EXPECT_EQ(status.visited_count(), 1);
}

TEST(BfsStatus, UnvisitedState) {
  BfsStatus status{10};
  status.reset(0);
  for (Vertex v = 1; v < 10; ++v) {
    EXPECT_EQ(status.parent(v), kNoVertex);
    EXPECT_EQ(status.level(v), -1);
    EXPECT_FALSE(status.is_visited(v));
  }
}

TEST(BfsStatus, ClaimWinsOnce) {
  BfsStatus status{10};
  status.reset(0);
  EXPECT_TRUE(status.claim(5, 0, 1));
  EXPECT_FALSE(status.claim(5, 2, 1));  // already claimed
  EXPECT_EQ(status.parent(5), 0);
  EXPECT_EQ(status.level(5), 1);
  EXPECT_TRUE(status.is_visited(5));
}

TEST(BfsStatus, AdvancePromotesNext) {
  BfsStatus status{10};
  status.reset(0);
  status.claim(4, 0, 1);
  status.claim(7, 0, 1);
  status.set_next({4, 7});
  status.advance();
  EXPECT_EQ(status.frontier_size(), 2);
  EXPECT_TRUE(status.in_frontier(4));
  EXPECT_TRUE(status.in_frontier(7));
  EXPECT_FALSE(status.in_frontier(0));  // old frontier gone
}

TEST(BfsStatus, AdvanceOnEmptyNextEmptiesFrontier) {
  BfsStatus status{4};
  status.reset(0);
  status.advance();
  EXPECT_EQ(status.frontier_size(), 0);
}

TEST(BfsStatus, ResetClearsPreviousSearch) {
  BfsStatus status{10};
  status.reset(0);
  status.claim(5, 0, 1);
  status.reset(2);
  EXPECT_EQ(status.parent(5), kNoVertex);
  EXPECT_EQ(status.parent(0), kNoVertex);
  EXPECT_EQ(status.parent(2), 2);
  EXPECT_EQ(status.visited_count(), 1);
}

TEST(BfsStatus, ParentSnapshotCopies) {
  BfsStatus status{5};
  status.reset(1);
  status.claim(3, 1, 1);
  const std::vector<Vertex> snap = status.parent_snapshot();
  EXPECT_EQ(snap, (std::vector<Vertex>{kNoVertex, 1, kNoVertex, 1,
                                       kNoVertex}));
}

TEST(BfsStatus, ConcurrentClaimsSingleWinnerPerVertex) {
  BfsStatus status{1000};
  status.reset(0);
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&status, &wins, t] {
      for (Vertex v = 1; v < 1000; ++v)
        if (status.claim(v, static_cast<Vertex>(t), 1)) wins.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), 999);
  EXPECT_EQ(status.visited_count(), 1000);
}

/// Claims one vertex through the word-level bottom-up claim.
void claim_one(BfsStatus& status, Vertex w, Vertex parent,
               std::int32_t level) {
  std::array<Vertex, 64> parents{};
  parents[static_cast<std::size_t>(w % 64)] = parent;
  status.claim_bottom_up_word(static_cast<std::size_t>(w / 64),
                              std::uint64_t{1} << (w % 64), parents, level);
}

TEST(BfsStatus, ClaimBottomUpSetsParentLevelVisited) {
  BfsStatus status{10};
  status.reset(0);
  claim_one(status, 6, 0, 1);
  EXPECT_EQ(status.parent(6), 0);
  EXPECT_EQ(status.level(6), 1);
  EXPECT_TRUE(status.is_visited(6));
  EXPECT_EQ(status.visited_count(), 2);
}

TEST(BfsStatus, ClaimBottomUpWordSetsEachClaimAndNoOther) {
  // Word 1 of a 130-vertex status, claimed with a parent per bit; the
  // root's word and the unclaimed bits stay as they were.
  BfsStatus status{130};
  status.reset(0);
  std::array<Vertex, 64> parents{};
  parents[0] = 0;
  parents[5] = 3;
  parents[63] = 70;
  const std::uint64_t claims =
      std::uint64_t{1} | std::uint64_t{1} << 5 | std::uint64_t{1} << 63;
  status.claim_bottom_up_word(1, claims, parents, 2);
  EXPECT_EQ(status.parent(64), 0);
  EXPECT_EQ(status.parent(69), 3);
  EXPECT_EQ(status.parent(127), 70);
  for (const Vertex v : {64, 69, 127}) {
    EXPECT_EQ(status.level(v), 2) << "v=" << v;
    EXPECT_TRUE(status.is_visited(v)) << "v=" << v;
  }
  EXPECT_EQ(status.visited_count(), 4);
  EXPECT_EQ(status.parent(65), kNoVertex);
  EXPECT_EQ(status.level(65), -1);
  EXPECT_EQ(status.parent(128), kNoVertex);
  // The partial tail word takes claims too.
  claim_one(status, 129, 64, 3);
  EXPECT_EQ(status.parent(129), 64);
  EXPECT_EQ(status.visited_count(), 5);
}

TEST(BfsStatus, ClaimBottomUpWordSharedWordAcrossThreads) {
  // Two workers own the two halves of one visited word, as at a chunk
  // boundary inside a word: the relaxed fetch_or keeps both halves.
  BfsStatus status{64};
  status.reset(0);
  std::array<Vertex, 64> parents{};
  parents.fill(0);
  const std::uint64_t low = 0x00000000fffffffeULL;  // 1..31
  const std::uint64_t high = 0xffffffff00000000ULL;  // 32..63
  std::thread a([&] { status.claim_bottom_up_word(0, low, parents, 1); });
  std::thread b([&] { status.claim_bottom_up_word(0, high, parents, 1); });
  a.join();
  b.join();
  EXPECT_EQ(status.visited_count(), 64);
  for (Vertex v = 1; v < 64; ++v) EXPECT_EQ(status.parent(v), 0) << v;
}

TEST(BfsStatus, SetNextMergedConcatsPerWorkerBuffers) {
  ThreadPool pool{4};
  BfsStatus status{16};
  status.reset(0);
  std::vector<std::vector<Vertex>> buffers = {{1, 2}, {}, {3}, {4, 5}};
  status.set_next_merged(buffers, pool);
  status.advance();
  ASSERT_EQ(status.frontier_rep(), FrontierRep::Queue);
  EXPECT_EQ(status.frontier(), (std::vector<Vertex>{1, 2, 3, 4, 5}));
  for (const Vertex v : {1, 2, 3, 4, 5}) EXPECT_TRUE(status.in_frontier(v));
}

TEST(BfsStatus, BitmapAdvanceMergesAndClearsWorkerBitmaps) {
  BfsStatus status{256};
  status.reset(0);
  status.begin_bitmap_next(2);
  claim_one(status, 10, 0, 1);
  status.worker_next(0).set(10);
  claim_one(status, 70, 0, 1);
  status.worker_next(1).set(70);
  status.advance();
  EXPECT_EQ(status.frontier_rep(), FrontierRep::Bitmap);
  EXPECT_EQ(status.frontier_size(), 2);
  EXPECT_TRUE(status.in_frontier(10));
  EXPECT_TRUE(status.in_frontier(70));
  EXPECT_FALSE(status.in_frontier(0));  // old frontier gone
  // The merge must restore the all-zero invariant so the next bitmap
  // level starts clean.
  EXPECT_EQ(status.worker_next(0).count(), 0u);
  EXPECT_EQ(status.worker_next(1).count(), 0u);
}

TEST(BfsStatus, EnsureFrontierQueueMaterializesSortedOnce) {
  BfsStatus status{256};
  status.reset(0);
  status.begin_bitmap_next(1);
  for (const Vertex v : {200, 3, 64, 63}) {
    claim_one(status, v, 0, 1);
    status.worker_next(0).set(static_cast<std::size_t>(v));
  }
  status.advance();
  ASSERT_EQ(status.frontier_rep(), FrontierRep::Bitmap);
  EXPECT_TRUE(status.ensure_frontier_queue());
  EXPECT_EQ(status.frontier_rep(), FrontierRep::Queue);
  EXPECT_EQ(status.frontier(), (std::vector<Vertex>{3, 63, 64, 200}));
  EXPECT_FALSE(status.ensure_frontier_queue());  // already a queue
}

TEST(BfsStatus, ParallelPathsMatchSerialOnLargeFrontiers) {
  // Drive both advance(pool) paths and the parallel queue materialization
  // above their serial-fallback thresholds and check against ground truth.
  constexpr Vertex kN = 1 << 20;
  ThreadPool pool{4};
  BfsStatus status{kN};
  status.reset(0);

  // Queue-pending path: a big next list -> parallel bitmap rebuild.
  std::vector<Vertex> next;
  for (Vertex v = 1; v < kN; v += 3) next.push_back(v);
  const auto expected = next;
  status.set_next(std::move(next));
  status.advance(pool);
  ASSERT_EQ(status.frontier_rep(), FrontierRep::Queue);
  EXPECT_EQ(status.frontier_size(),
            static_cast<std::int64_t>(expected.size()));
  EXPECT_TRUE(status.in_frontier(1));
  EXPECT_FALSE(status.in_frontier(2));
  EXPECT_FALSE(status.in_frontier(0));

  // Bitmap-pending path: per-worker bitmaps -> parallel word merge.
  status.begin_bitmap_next(2);
  for (Vertex v = 2; v < kN; v += 7)
    status.worker_next(v % 2 == 0 ? 0 : 1).set(static_cast<std::size_t>(v));
  status.advance(pool);
  ASSERT_EQ(status.frontier_rep(), FrontierRep::Bitmap);
  const std::int64_t bitmap_count = status.frontier_size();
  EXPECT_EQ(bitmap_count, (kN - 2 + 6) / 7);

  // Parallel queue materialization must agree with the bitmap.
  EXPECT_TRUE(status.ensure_frontier_queue(pool));
  ASSERT_EQ(status.frontier_size(), bitmap_count);
  const auto& frontier = status.frontier();
  EXPECT_TRUE(std::is_sorted(frontier.begin(), frontier.end()));
  EXPECT_EQ(frontier.front(), 2);
  for (const Vertex v : {Vertex{2}, Vertex{9}, Vertex{16}})
    EXPECT_TRUE(status.in_frontier(v));
}

TEST(BfsStatus, ByteSizeScalesWithVertices) {
  BfsStatus small{1000};
  BfsStatus large{100000};
  EXPECT_GT(large.byte_size(), small.byte_size());
  // parent (8B) + level (4B) + 2 bitmaps (2/8 B) per vertex at minimum.
  EXPECT_GE(large.byte_size(), 100000u * 12u);
}

TEST(BfsStatusDeath, RejectsOutOfRangeRoot) {
  BfsStatus status{4};
  EXPECT_DEATH(status.reset(4), "Precondition");
  EXPECT_DEATH(status.reset(-1), "Precondition");
}

}  // namespace
}  // namespace sembfs
