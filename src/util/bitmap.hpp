// Fixed-size bitmaps used for BFS frontier and visited-vertex tracking.
//
// Two flavours:
//  - Bitmap: plain single-writer bitmap (fast, no atomics).
//  - AtomicBitmap: concurrent bitmap whose set operations are lock-free and
//    report whether the caller won the race (the "claim" idiom the top-down
//    step relies on: tree(w) == -1 -> tree(w) = v must happen exactly once).
//
// Both store 64 bits per word; sizes are in bits. Beyond the per-bit
// operations, both expose their word arrays directly: the bottom-up BFS
// kernels work 64 vertices at a time (load one visited word, skip it when
// saturated, iterate survivors via countr_zero, OR the word's claims into
// the next frontier at once), so word access is part of the contract, not
// an implementation leak. Bits at positions >= size() within the last
// word are always zero (set() rejects them), so whole-word reads never
// see garbage in the partial tail word.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "util/contracts.hpp"

namespace sembfs {

namespace bitmap_detail {
/// Number of 64-bit words needed for `bits` bits.
constexpr std::size_t words_for(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}
}  // namespace bitmap_detail

/// All-ones in bit positions [0, bits) of one word; bits must be in
/// [0, 64]. tail_mask(64) is ~0 (the shift-by-width UB is avoided).
[[nodiscard]] constexpr std::uint64_t bitmap_tail_mask(
    std::size_t bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << bits) - 1;
}

/// Calls fn(base + bit) for every set bit of `word`, ascending. The
/// word-at-a-time idiom shared by every bitmap-driven kernel: callers load
/// (and mask) a word once, then burn it down via countr_zero.
template <typename Fn>
void for_each_set_in_word(std::uint64_t word, std::size_t base, Fn&& fn) {
  while (word != 0) {
    const int bit = std::countr_zero(word);
    fn(base + static_cast<std::size_t>(bit));
    word &= word - 1;
  }
}

/// Plain (non-atomic) bitmap. Not safe for concurrent writers, except for
/// set_atomic() and or_word_atomic(), which may race with each other.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t bits);

  void resize(std::size_t bits);
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }

  void set(std::size_t i) noexcept {
    SEMBFS_ASSERT(i < bits_);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  /// Sets bit i with a relaxed atomic OR, safe against concurrent
  /// set_atomic() and or_word_atomic() on the same word (the BFS steps
  /// write the next frontier from every worker, and two workers may share
  /// a word). Not ordered against plain reads in the same parallel region.
  void set_atomic(std::size_t i) noexcept {
    SEMBFS_ASSERT(i < bits_);
    std::atomic_ref<std::uint64_t>{words_[i >> 6]}.fetch_or(
        std::uint64_t{1} << (i & 63), std::memory_order_relaxed);
  }
  /// Sets the `bits` of word w with one relaxed atomic OR, under the same
  /// contract as set_atomic() — a kernel that claims several vertices of
  /// one word publishes them together. Bits at positions >= size() must be
  /// zero.
  void or_word_atomic(std::size_t w, std::uint64_t bits) noexcept {
    SEMBFS_ASSERT(w < words_.size());
    SEMBFS_ASSERT(w + 1 < words_.size() ||
                  (bits & ~bitmap_tail_mask(bits_ - w * 64)) == 0);
    std::atomic_ref<std::uint64_t>{words_[w]}.fetch_or(
        bits, std::memory_order_relaxed);
  }
  void reset(std::size_t i) noexcept {
    SEMBFS_ASSERT(i < bits_);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  [[nodiscard]] bool test(std::size_t i) const noexcept {
    SEMBFS_ASSERT(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1U;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// Calls fn(index) for every set bit, in increasing index order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      for_each_set_in_word(words_[w], w * 64, fn);
  }

  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    return words_[w];
  }

  /// Direct word access for word-parallel kernels.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return words_; }

  /// Clears via `pool` (anything with ThreadPool's run(n, fn)/size()
  /// shape), partitioning the word array statically. Serial below a small
  /// threshold — zeroing a few KiB does not amortize a fork/join.
  template <typename Pool>
  void clear_parallel(Pool& pool) {
    constexpr std::size_t kSerialWords = 1 << 14;  // 128 KiB
    const std::size_t n = words_.size();
    const std::size_t workers = pool.size();
    if (n <= kSerialWords || workers <= 1) {
      clear();
      return;
    }
    std::uint64_t* const data = words_.data();
    pool.run(workers, [data, n, workers](std::size_t w) {
      const std::size_t chunk = (n + workers - 1) / workers;
      const std::size_t lo = w * chunk;
      const std::size_t hi = lo + chunk < n ? lo + chunk : n;
      for (std::size_t i = lo; i < hi; ++i) data[i] = 0;
    });
  }

  /// Swap contents with another bitmap of any size.
  void swap(Bitmap& other) noexcept;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bits_ = 0;
};

/// Concurrent bitmap. set() uses fetch_or; try_set() reports the winner.
class AtomicBitmap {
 public:
  AtomicBitmap() = default;
  explicit AtomicBitmap(std::size_t bits);

  AtomicBitmap(const AtomicBitmap&) = delete;
  AtomicBitmap& operator=(const AtomicBitmap&) = delete;
  AtomicBitmap(AtomicBitmap&&) noexcept = default;
  AtomicBitmap& operator=(AtomicBitmap&&) noexcept = default;

  void resize(std::size_t bits);
  /// Clears all bits. Not safe concurrently with writers.
  void clear() noexcept;
  /// Sets every bit in [0, size()) — tail bits beyond size() stay zero, so
  /// whole-word reads keep seeing a saturated tail. Not safe concurrently
  /// with writers. The incremental BFS repair kernel seeds its "done"
  /// bitmap this way and then punches out only the wave members, turning
  /// the word-skip sweep into a sparse-wave scan.
  void fill() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return bits_; }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }

  void set(std::size_t i) noexcept {
    SEMBFS_ASSERT(i < bits_);
    words_[i >> 6].fetch_or(std::uint64_t{1} << (i & 63),
                            std::memory_order_relaxed);
  }

  /// Atomically clears bit i; returns true iff this call changed it 1 -> 0
  /// (the repair kernel's wave-membership dedup).
  bool try_reset(std::size_t i) noexcept {
    SEMBFS_ASSERT(i < bits_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    const std::uint64_t old =
        words_[i >> 6].fetch_and(~mask, std::memory_order_acq_rel);
    return (old & mask) != 0;
  }

  /// Atomically sets bit i; returns true iff this call changed it 0 -> 1.
  bool try_set(std::size_t i) noexcept {
    SEMBFS_ASSERT(i < bits_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    const std::uint64_t old =
        words_[i >> 6].fetch_or(mask, std::memory_order_acq_rel);
    return (old & mask) == 0;
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    SEMBFS_ASSERT(i < bits_);
    return (words_[i >> 6].load(std::memory_order_relaxed) >> (i & 63)) & 1U;
  }

  /// Sets the `bits` of word w with one relaxed fetch_or — a kernel that
  /// owns several vertices of one word publishes them together. Bits at
  /// positions >= size() must be zero.
  void or_word(std::size_t w, std::uint64_t bits) noexcept {
    SEMBFS_ASSERT(w < words_.size());
    SEMBFS_ASSERT(w + 1 < words_.size() ||
                  (bits & ~bitmap_tail_mask(bits_ - w * 64)) == 0);
    words_[w].fetch_or(bits, std::memory_order_relaxed);
  }

  /// Relaxed load of word w — the bottom-up sweep's unit of work. A word
  /// whose masked complement is zero is fully visited and costs one load
  /// for 64 vertices. Concurrent set()s may or may not be reflected;
  /// callers must tolerate stale zeros (the sweep does: a vertex never
  /// shows visited before its claim).
  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    return words_[w].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t count() const noexcept;

  /// Copies contents into a plain Bitmap (not concurrent-safe vs writers).
  void snapshot(Bitmap& out) const;

 private:
  // unique_ptr-free: vector of atomics cannot be resized with live data,
  // which is fine — BFS sizes the bitmap once per graph.
  std::vector<std::atomic<std::uint64_t>> words_;
  std::size_t bits_ = 0;
};

}  // namespace sembfs
