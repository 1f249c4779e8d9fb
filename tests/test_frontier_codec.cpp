// Wire-format tests for the sharded frontier exchange: round-trips for
// every encoding, the deterministic auto choice, and the malformed-
// message rejections that keep a faulted shard from poisoning its peers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "nvm/fault_plan.hpp"
#include "shard/frontier_codec.hpp"
#include "util/bitmap.hpp"

namespace sembfs::shard {
namespace {

std::vector<Vertex> decode_set(const std::vector<std::byte>& data) {
  std::vector<Vertex> out;
  decode_vertex_set(data, [&](Vertex v) { out.push_back(v); });
  return out;
}

std::vector<Claim> decode_pairs(const std::vector<std::byte>& data) {
  std::vector<Claim> out;
  decode_claims(data, [&](Vertex c, Vertex p) { out.push_back({c, p}); });
  return out;
}

TEST(FrontierCodec, EmptySetEncodesEmptyAndDecodesEmpty) {
  const VertexRange range{100, 200};
  for (const EncodingChoice choice :
       {EncodingChoice::kAuto, EncodingChoice::kForceBitmap,
        EncodingChoice::kForceVarint}) {
    const std::vector<std::byte> data = encode_vertex_set({}, range, choice);
    EXPECT_TRUE(data.empty()) << encoding_choice_name(choice);
    EXPECT_TRUE(decode_set(data).empty());
  }
  EXPECT_TRUE(encode_claims({}, range).empty());
  EXPECT_TRUE(decode_pairs({}).empty());
}

TEST(FrontierCodec, VarintRoundTrip) {
  const VertexRange range{1000, 5000};
  // Includes the boundary members: range.begin itself (first gap 0) and
  // range.end - 1.
  const std::vector<Vertex> vs{1000, 1001, 1500, 2048, 4999};
  const std::vector<std::byte> data =
      encode_vertex_set(vs, range, EncodingChoice::kForceVarint);
  EXPECT_EQ(encoding_of(data), FrontierEncoding::kVarintList);
  EXPECT_EQ(decode_set(data), vs);
}

TEST(FrontierCodec, BitmapRoundTrip) {
  const VertexRange range{64, 131};  // non-multiple-of-8 length
  const std::vector<Vertex> vs{64, 65, 70, 100, 130};
  const std::vector<std::byte> data =
      encode_vertex_set(vs, range, EncodingChoice::kForceBitmap);
  EXPECT_EQ(encoding_of(data), FrontierEncoding::kBitmap);
  EXPECT_EQ(decode_set(data), vs);
}

TEST(FrontierCodec, ClaimRoundTripWithNegativeParentDeltas) {
  const VertexRange range{0, 1 << 20};
  // Children non-decreasing with repeats; parents on either side of the
  // child (zigzag must carry negative deltas) and far away.
  const std::vector<Claim> claims{
      {5, 3}, {5, 900000}, {6, 7}, {100, 100}, {1048575, 0}};
  const std::vector<std::byte> data = encode_claims(claims, range);
  EXPECT_EQ(encoding_of(data), FrontierEncoding::kPairList);
  EXPECT_EQ(decode_pairs(data), claims);
}

TEST(FrontierCodec, AutoPicksVarintWhenSparseBitmapWhenDense) {
  const VertexRange range{0, 4096};
  const std::vector<Vertex> sparse{17, 900, 3000};
  EXPECT_EQ(encoding_of(encode_vertex_set(sparse, range,
                                          EncodingChoice::kAuto)),
            FrontierEncoding::kVarintList);

  std::vector<Vertex> dense;
  for (Vertex v = 0; v < 4096; v += 2) dense.push_back(v);
  const std::vector<std::byte> auto_data =
      encode_vertex_set(dense, range, EncodingChoice::kAuto);
  EXPECT_EQ(encoding_of(auto_data), FrontierEncoding::kBitmap);
  EXPECT_EQ(decode_set(auto_data), dense);

  // The auto choice is a function of the message alone: re-encoding
  // yields byte-identical output.
  EXPECT_EQ(auto_data, encode_vertex_set(dense, range, EncodingChoice::kAuto));
}

TEST(FrontierCodec, AutoNeverLargerThanEitherForcedEncoding) {
  const VertexRange range{512, 9000};
  std::vector<Vertex> vs;
  for (Vertex v = 512; v < 9000; v += 7) vs.push_back(v);
  const std::size_t auto_size =
      encode_vertex_set(vs, range, EncodingChoice::kAuto).size();
  const std::size_t varint_size =
      encode_vertex_set(vs, range, EncodingChoice::kForceVarint).size();
  const std::size_t bitmap_size =
      encode_vertex_set(vs, range, EncodingChoice::kForceBitmap).size();
  EXPECT_LE(auto_size, varint_size);
  EXPECT_LE(auto_size, bitmap_size);
}

TEST(FrontierCodec, AutoSkipsTheListOnlyWhenItCannotWin) {
  // Every gap is under 128, so every varint is one byte and the list's
  // payload is exactly the member count. The list must still win with one
  // member fewer than the bitmap payload has bytes; the shortcut that
  // skips it must not fire until the count reaches the payload.
  const VertexRange range{1000, 2000};
  const std::size_t payload = 125;  // ceil(1000 / 8)
  for (const std::size_t count : {payload - 1, payload, payload + 1}) {
    SCOPED_TRACE("members " + std::to_string(count));
    std::vector<Vertex> vs;
    Vertex v = range.begin + 3;
    for (std::size_t i = 0; i < count; ++i) {
      vs.push_back(v);
      v += 1 + static_cast<Vertex>(i % 7);
    }
    ASSERT_LT(vs.back(), range.end);
    const std::vector<std::byte> list =
        encode_vertex_set(vs, range, EncodingChoice::kForceVarint);
    const std::vector<std::byte> bitmap =
        encode_vertex_set(vs, range, EncodingChoice::kForceBitmap);
    const bool list_wins = list.size() < bitmap.size();
    EXPECT_EQ(list_wins, count < payload);
    EXPECT_EQ(encode_vertex_set(vs, range, EncodingChoice::kAuto),
              list_wins ? list : bitmap);
  }
}

TEST(FrontierCodec, BitmapSizeIndependentOfMemberCount) {
  const VertexRange range{0, 8192};
  const std::size_t one =
      encode_vertex_set(std::vector<Vertex>{7}, range,
                        EncodingChoice::kForceBitmap)
          .size();
  std::vector<Vertex> all;
  for (Vertex v = 0; v < 8192; ++v) all.push_back(v);
  const std::size_t full =
      encode_vertex_set(all, range, EncodingChoice::kForceBitmap).size();
  // Payload identical; only the varint member count in the header grows.
  EXPECT_LE(full, one + 2);
}

// --- malformed-message rejection -----------------------------------------

TEST(FrontierCodec, RejectsTruncatedMessage) {
  const VertexRange range{0, 1000};
  std::vector<std::byte> data = encode_vertex_set(
      std::vector<Vertex>{1, 2, 500}, range, EncodingChoice::kForceVarint);
  data.pop_back();
  EXPECT_THROW(decode_set(data), NvmIoError);

  std::vector<std::byte> bm = encode_vertex_set(
      std::vector<Vertex>{1, 2, 500}, range, EncodingChoice::kForceBitmap);
  bm.pop_back();
  EXPECT_THROW(decode_set(bm), NvmIoError);
}

TEST(FrontierCodec, RejectsTrailingBytes) {
  const VertexRange range{0, 1000};
  std::vector<std::byte> data = encode_vertex_set(
      std::vector<Vertex>{1, 2, 500}, range, EncodingChoice::kForceVarint);
  data.push_back(std::byte{0});
  EXPECT_THROW(decode_set(data), NvmIoError);
}

TEST(FrontierCodec, RejectsOutOfRangeMember) {
  // Hand-build a varint list claiming a member past range_end: tag, count
  // 1, range_begin 0, range_len 4, first gap 9 -> vertex 9 >= 4.
  const std::vector<std::byte> data{std::byte{1}, std::byte{1}, std::byte{0},
                                    std::byte{4}, std::byte{9}};
  EXPECT_THROW(decode_set(data), NvmIoError);
}

TEST(FrontierCodec, RejectsBitmapTailBitAndCountMismatch) {
  // Bitmap over [0, 3): one payload byte, but with bit 5 set (past
  // range_end).
  const std::vector<std::byte> tail{std::byte{2}, std::byte{1}, std::byte{0},
                                    std::byte{3}, std::byte{0x20}};
  EXPECT_THROW(decode_set(tail), NvmIoError);
  // Header says 2 members, payload has 1.
  const std::vector<std::byte> count{std::byte{2}, std::byte{2}, std::byte{0},
                                     std::byte{3}, std::byte{0x01}};
  EXPECT_THROW(decode_set(count), NvmIoError);
}

TEST(FrontierCodec, RejectsWindowsAndGapsThatOverflow) {
  // A window whose end is past INT64_MAX.
  std::vector<std::byte> window{std::byte{1}, std::byte{1}};
  append_varint(window, (std::uint64_t{1} << 62) + 5);
  append_varint(window, std::uint64_t{1} << 62);
  append_varint(window, 0);
  EXPECT_THROW(decode_set(window), NvmIoError);

  // Over [0, 100): member 5, then a gap that wraps back to member 3 in
  // 64-bit arithmetic. The list would be unsorted, not out of range.
  std::vector<std::byte> gap{std::byte{1}, std::byte{2}, std::byte{0},
                             std::byte{100}, std::byte{5}};
  append_varint(gap, ~std::uint64_t{1});
  EXPECT_THROW(decode_set(gap), NvmIoError);

  // The same wrap on a claim's child gap.
  std::vector<std::byte> claim{std::byte{3}, std::byte{2}, std::byte{0},
                               std::byte{100}, std::byte{5}, std::byte{0}};
  append_varint(claim, ~std::uint64_t{1});
  append_varint(claim, 0);
  EXPECT_THROW(decode_pairs(claim), NvmIoError);
}

TEST(FrontierCodec, RejectsWrongEncodingForDecoder) {
  const VertexRange range{0, 100};
  const std::vector<std::byte> set = encode_vertex_set(
      std::vector<Vertex>{3, 4}, range, EncodingChoice::kForceVarint);
  EXPECT_THROW(decode_pairs(set), NvmIoError);
  const std::vector<std::byte> pairs =
      encode_claims(std::vector<Claim>{{3, 4}}, range);
  EXPECT_THROW(decode_set(pairs), NvmIoError);
}

TEST(FrontierCodec, RejectsClaimChildOutOfRange) {
  // Pair list over [0, 4): child gap 9 -> child 9 out of range.
  const std::vector<std::byte> data{std::byte{3}, std::byte{1}, std::byte{0},
                                    std::byte{4}, std::byte{9}, std::byte{0}};
  EXPECT_THROW(decode_pairs(data), NvmIoError);
}

// --- word decode -------------------------------------------------------------

/// A receiver bitmap with bits set on both sides of `window`, so a decode
/// that overwrites words instead of ORing into them shows.
Bitmap prefilled(std::size_t bits, VertexRange window) {
  Bitmap out{bits};
  for (std::size_t v = 0; v < bits; v += 5)
    if (!window.contains(static_cast<Vertex>(v))) out.set(v);
  return out;
}

TEST(FrontierCodec, WordDecodeMatchesPerVertexDecodeAtAnyOffset) {
  for (const Vertex begin_mod : {0, 1, 37, 63}) {
    for (const Vertex len_mod : {0, 1, 63}) {
      const VertexRange window{128 + begin_mod, 128 + begin_mod + 192 + len_mod};
      SCOPED_TRACE("window [" + std::to_string(window.begin) + ", " +
                   std::to_string(window.end) + ")");
      // Both window ends, a full run across word boundaries, and gaps.
      std::vector<Vertex> vs;
      for (Vertex v = window.begin; v < window.end; ++v)
        if (v == window.begin || v == window.end - 1 || v % 7 < 3 ||
            (v >= 250 && v < 330))
          vs.push_back(v);
      const std::size_t bits = static_cast<std::size_t>(window.end) + 100;
      const VertexRange receiver{0, static_cast<Vertex>(bits)};
      for (const EncodingChoice choice :
           {EncodingChoice::kForceBitmap, EncodingChoice::kForceVarint}) {
        const std::vector<std::byte> data =
            encode_vertex_set(vs, window, choice);
        Bitmap expected = prefilled(bits, window);
        decode_vertex_set(data, [&](Vertex v) {
          expected.set(static_cast<std::size_t>(v));
        });
        Bitmap words = prefilled(bits, window);
        or_vertex_set(data, receiver, words);
        EXPECT_TRUE(std::equal(words.words().begin(), words.words().end(),
                               expected.words().begin()))
            << encoding_choice_name(choice);
      }
    }
  }
}

TEST(FrontierCodec, WordDecodeRejectsMalformedMessages) {
  const VertexRange receiver{0, 256};
  Bitmap out{256};
  const std::vector<Vertex> vs{64, 65, 70, 100, 130};
  const std::vector<std::byte> good = encode_vertex_set(
      vs, VertexRange{64, 134}, EncodingChoice::kForceBitmap);

  std::vector<std::byte> short_payload = good;
  short_payload.pop_back();
  EXPECT_THROW(or_vertex_set(short_payload, receiver, out), NvmIoError);
  std::vector<std::byte> long_payload = good;
  long_payload.push_back(std::byte{0});
  EXPECT_THROW(or_vertex_set(long_payload, receiver, out), NvmIoError);

  // Window [64, 134): 9 payload bytes, the last word holding 6 valid bits;
  // bit 7 of the last byte is window bit 71.
  std::vector<std::byte> tail_bit = good;
  tail_bit.back() |= std::byte{0x80};
  EXPECT_THROW(or_vertex_set(tail_bit, receiver, out), NvmIoError);

  // Header says 2 members, payload has 1.
  const std::vector<std::byte> count{std::byte{2}, std::byte{2}, std::byte{0},
                                     std::byte{3}, std::byte{0x01}};
  EXPECT_THROW(or_vertex_set(count, receiver, out), NvmIoError);

  // Tag, then a member count whose varint never ends.
  const std::vector<std::byte> header{std::byte{2}, std::byte{0x80}};
  EXPECT_THROW(or_vertex_set(header, receiver, out), NvmIoError);

  // A window reaching past either end of the receiver's range.
  EXPECT_THROW(or_vertex_set(good, VertexRange{0, 100}, out),
               NvmIoError);
  EXPECT_THROW(or_vertex_set(good, VertexRange{65, 256}, out),
               NvmIoError);

  // Claims are not a vertex set.
  const std::vector<std::byte> pairs =
      encode_claims(std::vector<Claim>{{3, 4}}, receiver);
  EXPECT_THROW(or_vertex_set(pairs, receiver, out), NvmIoError);

  // A bitmap payload is checked whole before any word is written.
  EXPECT_EQ(out.count(), 0u);
  or_vertex_set(good, receiver, out);
  EXPECT_EQ(out.count(), vs.size());
}

TEST(FrontierCodec, EncodingChoiceNames) {
  EXPECT_STREQ(encoding_choice_name(EncodingChoice::kAuto), "auto");
  EXPECT_EQ(encoding_choice_from_name("bitmap"),
            EncodingChoice::kForceBitmap);
  EXPECT_EQ(encoding_choice_from_name("varint"),
            EncodingChoice::kForceVarint);
  EXPECT_THROW((void)encoding_choice_from_name("zstd"),
               std::invalid_argument);
}

}  // namespace
}  // namespace sembfs::shard
