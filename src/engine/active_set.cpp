#include "engine/active_set.hpp"

#include <algorithm>
#include <bit>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/contracts.hpp"

namespace sembfs::engine {

namespace {
// Below this size a fork/join costs more than the work it spreads.
constexpr std::size_t kSerialWords = 1 << 13;  // 64 KiB of bitmap
}  // namespace

ActiveSet::ActiveSet(Vertex vertex_count)
    : n_(vertex_count),
      bits_(static_cast<std::size_t>(vertex_count)),
      next_(static_cast<std::size_t>(vertex_count)) {
  SEMBFS_EXPECTS(vertex_count >= 1);
}

void ActiveSet::clear() {
  bits_.clear();
  next_.clear();
  queue_.clear();
  queue_valid_ = false;
  count_ = 0;
}

void ActiveSet::seed(Vertex v) {
  SEMBFS_EXPECTS(v >= 0 && v < n_);
  clear();
  bits_.set(static_cast<std::size_t>(v));
  count_ = 1;
}

void ActiveSet::seed_all() {
  clear();
  for (Vertex v = 0; v < n_; ++v) bits_.set(static_cast<std::size_t>(v));
  count_ = n_;
}

void ActiveSet::advance(ThreadPool& pool) {
  bits_.swap(next_);
  queue_valid_ = false;
  // One pass counts the new current set and clears the old one.
  const std::span<const std::uint64_t> current = bits_.words();
  const std::span<std::uint64_t> stale = next_.words();
  const auto count_and_clear = [&](std::int64_t& acc, std::int64_t w) {
    const auto i = static_cast<std::size_t>(w);
    acc += std::popcount(current[i]);
    stale[i] = 0;
  };
  const auto words = static_cast<std::int64_t>(current.size());
  if (pool.size() <= 1 || current.size() < kSerialWords) {
    std::int64_t count = 0;
    for (std::int64_t w = 0; w < words; ++w) count_and_clear(count, w);
    count_ = count;
    return;
  }
  count_ = parallel_reduce<std::int64_t>(
      pool, 0, words, 0, count_and_clear,
      [](std::int64_t a, std::int64_t b) { return a + b; });
}

const std::vector<Vertex>& ActiveSet::queue(ThreadPool& pool) {
  if (queue_valid_) return queue_;
  queue_.clear();
  const std::size_t words = bits_.word_count();
  if (pool.size() <= 1 || words < kSerialWords) {
    queue_.reserve(static_cast<std::size_t>(count_));
    bits_.for_each_set(
        [&](std::size_t v) { queue_.push_back(static_cast<Vertex>(v)); });
    queue_valid_ = true;
    return queue_;
  }

  // Three passes over word blocks: popcount per block, serial exclusive
  // prefix over the (few) blocks, then scatter each block's set bits at
  // its offset, so the queue comes out ascending.
  constexpr std::size_t kBlockWords = 2048;  // 128 Ki vertices per block
  const std::size_t blocks = (words + kBlockWords - 1) / kBlockWords;
  std::vector<std::size_t> offsets(blocks + 1, 0);
  const std::span<const std::uint64_t> bits = bits_.words();
  parallel_for(pool, 0, static_cast<std::int64_t>(blocks),
               [&](std::int64_t block) {
                 const auto b = static_cast<std::size_t>(block);
                 const std::size_t lo = b * kBlockWords;
                 const std::size_t hi = std::min(words, lo + kBlockWords);
                 std::size_t count = 0;
                 for (std::size_t w = lo; w < hi; ++w)
                   count += std::popcount(bits[w]);
                 offsets[b + 1] = count;
               });
  for (std::size_t b = 0; b < blocks; ++b) offsets[b + 1] += offsets[b];
  SEMBFS_ASSERT(offsets[blocks] == static_cast<std::size_t>(count_));
  queue_.resize(offsets[blocks]);
  Vertex* const dst = queue_.data();
  parallel_for(pool, 0, static_cast<std::int64_t>(blocks),
               [&](std::int64_t block) {
                 const auto b = static_cast<std::size_t>(block);
                 const std::size_t lo = b * kBlockWords;
                 const std::size_t hi = std::min(words, lo + kBlockWords);
                 std::size_t at = offsets[b];
                 for (std::size_t w = lo; w < hi; ++w)
                   for_each_set_in_word(bits[w], w * 64, [&](std::size_t v) {
                     dst[at++] = static_cast<Vertex>(v);
                   });
               });
  queue_valid_ = true;
  return queue_;
}

std::uint64_t ActiveSet::byte_size() const noexcept {
  const auto n = static_cast<std::uint64_t>(n_);
  return 2 * ((n + 7) / 8)  // current and next bitmaps
         + queue_.capacity() * sizeof(Vertex);
}

}  // namespace sembfs::engine
