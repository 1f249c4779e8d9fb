// The word-skip unvisited sweep shared by every bottom-up-shaped kernel
// (the pull executor pull_sweep in bottom_up.hpp, the sharded bottom-up
// and the incremental repair). Workers load 64 vertices' "done" bits at a
// time and skip saturated words outright — on late levels nearly every
// word is saturated, so most of a vertex range costs one load + compare
// per 64 vertices — and hand each word's survivors to the kernel, as a
// word or vertex by vertex.
#pragma once

#include <cstdint>
#include <utility>

#include "graph/delta_buffer.hpp"
#include "graph/types.hpp"
#include "util/bitmap.hpp"

namespace sembfs {

/// A sweep's skip mask that skips nothing.
struct NoSkip {
  constexpr std::uint64_t operator()(std::size_t /*word*/) const noexcept {
    return 0;
  }
};

/// A sweep's done bitmap with no vertex done: every vertex the skip mask
/// leaves is swept (the components and PageRank pulls).
struct NothingDone {
  constexpr std::uint64_t word(std::size_t /*word*/) const noexcept {
    return 0;
  }
};

/// The skip mask of a sweep over a backward graph: its degree-0 vertices
/// (`degree_zero`, which no frontier reaches), less those `delta` (may be
/// null) gives inserted in-neighbors. Word w of the result covers
/// vertices [64w, 64w + 64). Both arguments must outlive the mask.
[[nodiscard]] inline auto degree_zero_skip(const Bitmap& degree_zero,
                                           const DeltaBuffer* delta) {
  return [&degree_zero, delta](std::size_t w) noexcept {
    std::uint64_t skip = degree_zero.word(w);
    if (delta != nullptr) skip &= ~delta->inserts_word(w);
    return skip;
  };
}

/// Calls scan_word(w, pending) for every bitmap word w overlapping
/// [abs_lo, abs_hi) that holds a vertex of the range whose bit in `done`
/// is clear and whose bit in skip(w) is clear; `pending` holds those
/// vertices' bits (bit i is vertex 64w + i). `done` is the kernel's
/// saturation bitmap, anything with word(w): the visited bitmap for
/// single-search bottom-up, the all-queries-covered bitmap for MS-BFS,
/// NothingDone for a full sweep. Concurrent set()s may or may not be
/// reflected; callers must tolerate stale zeros (a vertex never reads
/// as done before its claim). `skip` clears the bits of vertices that can
/// never be claimed (degree_zero_skip), so they cost nothing and a word
/// whose other vertices are all done is skipped. Returns {words swept,
/// words skipped}.
template <typename Done, typename WordFn, typename SkipFn = NoSkip>
std::pair<std::uint64_t, std::uint64_t> sweep_unvisited_words(
    const Done& done, std::int64_t abs_lo, std::int64_t abs_hi,
    WordFn&& scan_word, SkipFn skip = {}) {
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
    mask &= ~skip(w);
    const std::uint64_t pending = ~done.word(w) & mask;
    if (pending == 0) {
      // Fully-done (or fully out-of-range or masked) word: 64 vertices
      // for one load — the common case on late levels.
      ++skipped;
      continue;
    }
    scan_word(w, pending);
  }
  return {swept, skipped};
}

/// sweep_unvisited_words, calling scan(vtx) for each survivor in
/// ascending order.
template <typename Done, typename ScanFn, typename SkipFn = NoSkip>
std::pair<std::uint64_t, std::uint64_t> sweep_unvisited(
    const Done& done, std::int64_t abs_lo, std::int64_t abs_hi,
    ScanFn&& scan, SkipFn skip = {}) {
  return sweep_unvisited_words(
      done, abs_lo, abs_hi,
      [&](std::size_t w, std::uint64_t pending) {
        for_each_set_in_word(pending, w * 64, [&](std::size_t vtx) {
          scan(static_cast<Vertex>(vtx));
        });
      },
      skip);
}

}  // namespace sembfs
