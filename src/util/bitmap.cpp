#include "util/bitmap.hpp"

#include <algorithm>
#include <bit>

namespace sembfs {

using bitmap_detail::words_for;

Bitmap::Bitmap(std::size_t bits) : words_(words_for(bits), 0), bits_(bits) {}

void Bitmap::resize(std::size_t bits) {
  words_.assign(words_for(bits), 0);
  bits_ = bits;
}

void Bitmap::clear() noexcept { std::fill(words_.begin(), words_.end(), 0); }

std::size_t Bitmap::count() const noexcept {
  std::size_t total = 0;
  for (const auto w : words_) total += std::popcount(w);
  return total;
}

void Bitmap::swap(Bitmap& other) noexcept {
  words_.swap(other.words_);
  std::swap(bits_, other.bits_);
}

AtomicBitmap::AtomicBitmap(std::size_t bits)
    : words_(words_for(bits)), bits_(bits) {
  clear();
}

void AtomicBitmap::resize(std::size_t bits) {
  words_ = std::vector<std::atomic<std::uint64_t>>(words_for(bits));
  bits_ = bits;
  clear();
}

void AtomicBitmap::clear() noexcept {
  for (auto& w : words_) w.store(0, std::memory_order_relaxed);
}

void AtomicBitmap::fill() noexcept {
  if (words_.empty()) return;
  for (auto& w : words_) w.store(~std::uint64_t{0}, std::memory_order_relaxed);
  // Keep the partial tail word's dead bits zero (see the class contract).
  words_.back().store(bitmap_tail_mask(bits_ - (words_.size() - 1) * 64),
                      std::memory_order_relaxed);
}

std::size_t AtomicBitmap::count() const noexcept {
  std::size_t total = 0;
  for (const auto& w : words_)
    total += std::popcount(w.load(std::memory_order_relaxed));
  return total;
}

void AtomicBitmap::snapshot(Bitmap& out) const {
  out.resize(bits_);
  const std::span<std::uint64_t> dst = out.words();
  for (std::size_t w = 0; w < words_.size(); ++w)
    dst[w] = words_[w].load(std::memory_order_relaxed);
}

}  // namespace sembfs
