// Wire-format tests for the sharded frontier exchange: round-trips for
// every encoding, the deterministic auto choice, and the malformed-
// message rejections that keep a faulted shard from poisoning its peers.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "nvm/fault_plan.hpp"
#include "shard/frontier_codec.hpp"

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
