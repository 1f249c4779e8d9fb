// The word-skip unvisited sweep shared by every bottom-up-shaped kernel
// (single-search bottom_up_step and the serving layer's batched MS-BFS).
// Workers load 64 vertices' "done" bits at a time and skip saturated
// words outright — on late levels nearly every word is saturated, so most
// of a vertex range costs one load + compare per 64 vertices — iterating
// survivors via countr_zero.
#pragma once

#include <cstdint>
#include <utility>

#include "graph/types.hpp"
#include "util/bitmap.hpp"

namespace sembfs {

/// Calls scan(vtx) for every vertex in [abs_lo, abs_hi) whose bit in
/// `done` is clear, loading the bitmap one word at a time and skipping
/// words with no survivors. `done` is the kernel's saturation bitmap: the
/// visited bitmap for single-search bottom-up, the all-queries-covered
/// bitmap for MS-BFS. Concurrent set()s may or may not be reflected;
/// callers must tolerate stale zeros (a vertex never reads as done before
/// its claim). A non-null `skip` (the backward graph's degree-0 mask)
/// clears its bits from each word as it is loaded: those vertices can
/// never be claimed, so they cost nothing, and a word whose other vertices
/// are all done is skipped. Returns {words swept, words skipped}.
template <typename ScanFn>
std::pair<std::uint64_t, std::uint64_t> sweep_unvisited(
    const AtomicBitmap& done, std::int64_t abs_lo, std::int64_t abs_hi,
    ScanFn&& scan, const Bitmap* skip = nullptr) {
  std::uint64_t swept = 0;
  std::uint64_t skipped = 0;
  const auto lo = static_cast<std::size_t>(abs_lo);
  const auto hi = static_cast<std::size_t>(abs_hi);
  const std::size_t w0 = lo >> 6;
  const std::size_t w1 = (hi + 63) >> 6;
  for (std::size_t w = w0; w < w1; ++w) {
    // Mask the word down to [abs_lo, abs_hi): chunk and node-range
    // boundaries are not word-aligned, and bits outside the range belong
    // to another worker's chunk (or another node's partition).
    std::uint64_t mask = ~std::uint64_t{0};
    if (w == w0) mask &= ~std::uint64_t{0} << (lo & 63);
    if (const std::size_t word_end = (w + 1) * 64; word_end > hi)
      mask &= bitmap_tail_mask(64 - (word_end - hi));
    ++swept;
    if (skip != nullptr) mask &= ~skip->word(w);
    std::uint64_t pending = ~done.word(w) & mask;
    if (pending == 0) {
      // Fully-done (or fully out-of-range or masked) word: 64 vertices
      // for one load — the common case on late levels.
      ++skipped;
      continue;
    }
    for_each_set_in_word(pending, w * 64, [&](std::size_t vtx) {
      scan(static_cast<Vertex>(vtx));
    });
  }
  return {swept, skipped};
}

}  // namespace sembfs
