#include "bfs/bfs_status.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace sembfs {
namespace {

TEST(BfsStatus, ResetSeedsRoot) {
  ThreadPool pool{1};
  BfsStatus status{10};
  status.reset(3);
  EXPECT_EQ(status.parent(3), 3);
  EXPECT_EQ(status.level(3), 0);
  EXPECT_TRUE(status.is_visited(3));
  EXPECT_TRUE(status.in_frontier(3));
  EXPECT_EQ(status.frontier_size(), 1);
  EXPECT_EQ(status.frontier_queue(pool), (std::vector<Vertex>{3}));
  EXPECT_EQ(status.next_frontier().count(), 0u);
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
  ThreadPool pool{2};
  BfsStatus status{10};
  status.reset(0);
  status.claim(4, 0, 1);
  status.claim(7, 0, 1);
  status.next_frontier().set_atomic(7);
  status.next_frontier().set_atomic(4);
  status.advance(pool);
  EXPECT_EQ(status.frontier_size(), 2);
  EXPECT_TRUE(status.in_frontier(4));
  EXPECT_TRUE(status.in_frontier(7));
  EXPECT_FALSE(status.in_frontier(0));  // old frontier gone
  EXPECT_EQ(status.frontier_queue(pool), (std::vector<Vertex>{4, 7}));
}

TEST(BfsStatus, AdvanceOnEmptyNextEmptiesFrontier) {
  ThreadPool pool{1};
  BfsStatus status{4};
  status.reset(0);
  status.advance(pool);
  EXPECT_EQ(status.frontier_size(), 0);
  EXPECT_TRUE(status.frontier_queue(pool).empty());
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

TEST(BfsStatus, BitmapAdvanceMergesAndClearsWorkerBitmaps) {
  // Two threads OR claims into the one next frontier, one of them a word
  // at a time as the bottom-up kernel does; advance() promotes both and
  // leaves the next frontier empty for the following level.
  ThreadPool pool{2};
  BfsStatus status{256};
  status.reset(0);
  claim_one(status, 10, 0, 1);
  claim_one(status, 70, 0, 1);
  claim_one(status, 71, 0, 1);
  std::thread a([&] { status.next_frontier().set_atomic(10); });
  std::thread b([&] {
    status.next_frontier().or_word_atomic(1, std::uint64_t{0b11} << 6);
  });
  a.join();
  b.join();
  status.advance(pool);
  EXPECT_EQ(status.frontier_size(), 3);
  EXPECT_TRUE(status.in_frontier(10));
  EXPECT_TRUE(status.in_frontier(70));
  EXPECT_TRUE(status.in_frontier(71));
  EXPECT_FALSE(status.in_frontier(0));  // old frontier gone
  EXPECT_EQ(status.next_frontier().count(), 0u);
  // The next level starts from a clean next frontier.
  status.advance(pool);
  EXPECT_EQ(status.frontier_size(), 0);
}

TEST(BfsStatus, EnsureFrontierQueueMaterializesSortedOnce) {
  ThreadPool pool{4};
  BfsStatus status{256};
  status.reset(0);
  for (const Vertex v : {200, 3, 64, 63}) {
    claim_one(status, v, 0, 1);
    status.next_frontier().set_atomic(static_cast<std::size_t>(v));
  }
  status.advance(pool);
  EXPECT_EQ(status.frontier_queue(pool),
            (std::vector<Vertex>{3, 63, 64, 200}));
  // Later calls in the same level list the same frontier, whatever claims
  // are already landing in the next one...
  status.next_frontier().set_atomic(100);
  EXPECT_EQ(status.frontier_queue(pool),
            (std::vector<Vertex>{3, 63, 64, 200}));
  // ...and after advance() the call lists the new frontier.
  status.advance(pool);
  EXPECT_EQ(status.frontier_queue(pool), (std::vector<Vertex>{100}));
}

TEST(BfsStatus, ParallelPathsMatchSerialOnLargeFrontiers) {
  // advance() and the queue extraction below and above their serial
  // thresholds, on one worker and on four: every path counts the same
  // frontier and lists it ascending.
  for (const Vertex n : {Vertex{1} << 12, Vertex{1} << 20}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " workers="
                                        << workers);
      ThreadPool pool{workers};
      BfsStatus status{n};
      status.reset(0);
      for (const Vertex stride : {3, 7}) {
        std::vector<Vertex> expected;
        for (Vertex v = stride - 2; v < n; v += stride) expected.push_back(v);
        Bitmap& next = status.next_frontier();
        parallel_for(pool, 0, static_cast<std::int64_t>(expected.size()),
                     [&](std::int64_t i) {
                       next.set_atomic(static_cast<std::size_t>(
                           expected[static_cast<std::size_t>(i)]));
                     });
        status.advance(pool);
        ASSERT_EQ(status.frontier_size(),
                  static_cast<std::int64_t>(expected.size()));
        ASSERT_EQ(status.frontier_queue(pool), expected);
        EXPECT_EQ(status.next_frontier().count(), 0u);
      }
      EXPECT_TRUE(status.in_frontier(5));   // stride 7, from 5
      EXPECT_FALSE(status.in_frontier(1));  // stride 3's frontier gone
    }
  }
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
