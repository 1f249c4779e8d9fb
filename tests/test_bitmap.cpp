#include "util/bitmap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace sembfs {
namespace {

TEST(BitmapTailMask, CoversZeroToSixtyFour) {
  EXPECT_EQ(bitmap_tail_mask(0), 0u);
  EXPECT_EQ(bitmap_tail_mask(1), 1u);
  EXPECT_EQ(bitmap_tail_mask(63), ~std::uint64_t{0} >> 1);
  EXPECT_EQ(bitmap_tail_mask(64), ~std::uint64_t{0});  // no shift-by-64 UB
}

TEST(BitmapWords, ForEachSetInWordVisitsAscending) {
  const std::uint64_t word =
      (std::uint64_t{1} << 0) | (std::uint64_t{1} << 13) |
      (std::uint64_t{1} << 63);
  std::vector<std::size_t> seen;
  for_each_set_in_word(word, 128, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{128, 141, 191}));
  for_each_set_in_word(0, 0, [&](std::size_t) { FAIL(); });
}

TEST(Bitmap, StartsEmpty) {
  Bitmap b{100};
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(Bitmap, SetTestReset) {
  Bitmap b{130};
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitmap, ClearZeroesEverything) {
  Bitmap b{200};
  for (std::size_t i = 0; i < 200; i += 3) b.set(i);
  ASSERT_GT(b.count(), 0u);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, ForEachSetVisitsInOrder) {
  Bitmap b{300};
  const std::vector<std::size_t> expected = {0, 1, 63, 64, 65, 128, 299};
  for (const auto i : expected) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(Bitmap, SwapExchangesContentAndSize) {
  Bitmap a{64};
  Bitmap b{128};
  a.set(3);
  b.set(100);
  a.swap(b);
  EXPECT_EQ(a.size(), 128u);
  EXPECT_TRUE(a.test(100));
  EXPECT_EQ(b.size(), 64u);
  EXPECT_TRUE(b.test(3));
}

TEST(Bitmap, ResizeResetsContent) {
  Bitmap b{64};
  b.set(10);
  b.resize(256);
  EXPECT_EQ(b.size(), 256u);
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, CountOnWordBoundarySizes) {
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 127u, 128u}) {
    Bitmap b{bits};
    for (std::size_t i = 0; i < bits; ++i) b.set(i);
    EXPECT_EQ(b.count(), bits) << "bits=" << bits;
  }
}

TEST(Bitmap, WordBoundaryBitsLandInAdjacentWords) {
  Bitmap b{130};
  b.set(63);
  b.set(64);
  ASSERT_EQ(b.word_count(), 3u);
  EXPECT_EQ(b.word(0), std::uint64_t{1} << 63);
  EXPECT_EQ(b.word(1), std::uint64_t{1});
  EXPECT_EQ(b.word(2), 0u);
}

TEST(Bitmap, TailWordBitsBeyondSizeStayZero) {
  // The word-parallel kernels read whole words; bits >= size() in the last
  // partial word must never be set, or count()/sweeps would see ghosts.
  Bitmap b{70};
  for (std::size_t i = 0; i < 70; ++i) b.set(i);
  EXPECT_EQ(b.count(), 70u);
  ASSERT_EQ(b.word_count(), 2u);
  EXPECT_EQ(b.word(1), bitmap_tail_mask(6));
}

TEST(Bitmap, CountOnPartialTailWord) {
  Bitmap b{100};
  b.set(0);
  b.set(64);
  b.set(99);  // last valid bit of the partial tail word
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitmap, SetAtomicRacesOnSharedWordsLoseNoBits) {
  // Both atomic writers — set_atomic per bit and or_word_atomic per word —
  // in every mix: the BFS steps use both on one next-frontier bitmap.
  constexpr std::size_t kBits = 1 << 12;
  constexpr int kThreads = 8;
  for (const int word_writers : {0, kThreads / 2, kThreads}) {
    SCOPED_TRACE(word_writers);
    Bitmap b{kBits};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&b, t, word_writers] {
        // Every thread writes a distinct residue class mod kThreads, so all
        // threads hammer every word concurrently.
        if (t < word_writers) {
          std::uint64_t mask = 0;
          for (std::size_t i = static_cast<std::size_t>(t); i < 64;
               i += kThreads)
            mask |= std::uint64_t{1} << i;
          for (std::size_t w = 0; w < kBits / 64; ++w)
            b.or_word_atomic(w, mask);
          return;
        }
        for (std::size_t i = static_cast<std::size_t>(t); i < kBits;
             i += kThreads)
          b.set_atomic(i);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(b.count(), kBits);
  }
}

TEST(Bitmap, ClearParallelZeroesLargeBitmap) {
  constexpr std::size_t kBits = 1 << 21;  // 1<<15 words: the parallel path
  Bitmap b{kBits};
  for (std::size_t i = 0; i < kBits; i += 97) b.set(i);
  ASSERT_GT(b.count(), 0u);
  ThreadPool pool{4};
  b.clear_parallel(pool);
  EXPECT_EQ(b.count(), 0u);

  Bitmap small{128};  // below the serial threshold
  small.set(5);
  small.clear_parallel(pool);
  EXPECT_EQ(small.count(), 0u);
}

TEST(AtomicBitmap, WordLoadsSeeSetBits) {
  AtomicBitmap b{130};
  b.set(63);
  b.set(64);
  EXPECT_EQ(b.word(0), std::uint64_t{1} << 63);
  EXPECT_EQ(b.word(1), std::uint64_t{1});
  EXPECT_EQ(b.word_count(), 3u);
}

TEST(AtomicBitmap, TrySetReportsFirstWinnerOnly) {
  AtomicBitmap b{64};
  EXPECT_TRUE(b.try_set(5));
  EXPECT_FALSE(b.try_set(5));
  EXPECT_TRUE(b.test(5));
}

TEST(AtomicBitmap, SetIsIdempotent) {
  AtomicBitmap b{64};
  b.set(7);
  b.set(7);
  EXPECT_EQ(b.count(), 1u);
}

TEST(AtomicBitmap, ConcurrentTrySetHasExactlyOneWinnerPerBit) {
  constexpr std::size_t kBits = 4096;
  constexpr int kThreads = 8;
  AtomicBitmap b{kBits};
  std::vector<std::size_t> wins(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&b, &wins, t] {
      std::size_t w = 0;
      for (std::size_t i = 0; i < kBits; ++i)
        if (b.try_set(i)) ++w;
      wins[t] = w;
    });
  }
  for (auto& t : threads) t.join();
  std::size_t total = 0;
  for (const auto w : wins) total += w;
  EXPECT_EQ(total, kBits);  // every bit claimed exactly once
  EXPECT_EQ(b.count(), kBits);
}

TEST(AtomicBitmap, SnapshotMatches) {
  AtomicBitmap a{130};
  a.set(0);
  a.set(129);
  a.set(64);
  Bitmap plain;
  a.snapshot(plain);
  EXPECT_EQ(plain.size(), 130u);
  EXPECT_EQ(plain.count(), 3u);
  EXPECT_TRUE(plain.test(0));
  EXPECT_TRUE(plain.test(64));
  EXPECT_TRUE(plain.test(129));
}

TEST(AtomicBitmap, ClearAfterUse) {
  AtomicBitmap b{128};
  b.set(1);
  b.set(127);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.try_set(1));  // claimable again
}

}  // namespace
}  // namespace sembfs
