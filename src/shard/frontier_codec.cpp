#include "shard/frontier_codec.hpp"

#include <bit>
#include <limits>
#include <stdexcept>

#include "util/contracts.hpp"

namespace sembfs::shard {

namespace codec_detail {

void check(bool ok, const char* what) {
  if (!ok) throw NvmIoError(what);
}

Header decode_header(std::span<const std::byte> data) {
  check(!data.empty(), "frontier decode: empty header");
  const auto tag = static_cast<std::uint8_t>(data[0]);
  check(tag >= 1 && tag <= 3, "frontier decode: unknown encoding tag");
  Header h{};
  h.encoding = static_cast<FrontierEncoding>(tag);
  std::size_t pos = 1;
  h.count = decode_varint(data, pos);
  h.range_begin = static_cast<std::int64_t>(decode_varint(data, pos));
  h.range_len = static_cast<std::int64_t>(decode_varint(data, pos));
  check(h.range_begin >= 0 && h.range_len >= 0 &&
            h.range_len <= std::numeric_limits<std::int64_t>::max() -
                               h.range_begin,
        "frontier decode: negative or overflowing range");
  h.pos = pos;
  return h;
}

}  // namespace codec_detail

namespace {

void append_header(std::vector<std::byte>& out, FrontierEncoding encoding,
                   std::uint64_t count, VertexRange range) {
  out.push_back(static_cast<std::byte>(encoding));
  append_varint(out, count);
  append_varint(out, static_cast<std::uint64_t>(range.begin));
  append_varint(out, static_cast<std::uint64_t>(range.size()));
}

/// Word i of a bitmap payload of `payload` bytes: bit b is window bit
/// 64i + b (payload bytes are little-endian within a word). A full word's
/// constant-trip loop compiles to one load on little-endian hosts.
std::uint64_t payload_word(const std::byte* bytes, std::size_t payload,
                           std::size_t i) {
  const std::byte* p = bytes + 8 * i;
  std::uint64_t word = 0;
  if (payload - 8 * i >= 8) {
    for (std::size_t b = 0; b < 8; ++b)
      word |= std::uint64_t{static_cast<std::uint8_t>(p[b])} << (8 * b);
    return word;
  }
  for (std::size_t b = 0; b < payload - 8 * i; ++b)
    word |= std::uint64_t{static_cast<std::uint8_t>(p[b])} << (8 * b);
  return word;
}

}  // namespace

const char* encoding_choice_name(EncodingChoice c) noexcept {
  switch (c) {
    case EncodingChoice::kAuto: return "auto";
    case EncodingChoice::kForceBitmap: return "bitmap";
    case EncodingChoice::kForceVarint: return "varint";
  }
  return "auto";
}

EncodingChoice encoding_choice_from_name(const std::string& name) {
  if (name == "auto") return EncodingChoice::kAuto;
  if (name == "bitmap") return EncodingChoice::kForceBitmap;
  if (name == "varint") return EncodingChoice::kForceVarint;
  throw std::invalid_argument("unknown frontier encoding: " + name +
                              " (expected auto|bitmap|varint)");
}

std::vector<std::byte> encode_vertex_set(std::span<const Vertex> vertices,
                                         VertexRange range,
                                         EncodingChoice choice) {
  std::vector<std::byte> out;
  if (vertices.empty()) return out;

  const auto bitmap_payload =
      static_cast<std::size_t>((range.size() + 7) / 8);

  // A list of at least bitmap_payload members cannot be strictly smaller:
  // every varint takes at least one byte.
  if (choice == EncodingChoice::kForceVarint ||
      (choice == EncodingChoice::kAuto && vertices.size() < bitmap_payload)) {
    append_header(out, FrontierEncoding::kVarintList, vertices.size(),
                  range);
    const std::size_t header_bytes = out.size();
    Vertex prev = range.begin;
    bool first = true;
    for (const Vertex v : vertices) {
      SEMBFS_ASSERT(range.contains(v) && (first || v > prev));
      append_varint(out, static_cast<std::uint64_t>(v - prev));
      prev = v;
      first = false;
    }
    if (choice == EncodingChoice::kForceVarint ||
        out.size() - header_bytes < bitmap_payload)
      return out;
    out.clear();  // the bitmap is no larger — re-encode dense
  }

  append_header(out, FrontierEncoding::kBitmap, vertices.size(), range);
  const std::size_t payload_start = out.size();
  out.resize(payload_start + bitmap_payload, std::byte{0});
  for (const Vertex v : vertices) {
    SEMBFS_ASSERT(range.contains(v));
    const auto off = static_cast<std::size_t>(v - range.begin);
    out[payload_start + (off >> 3)] |=
        static_cast<std::byte>(1U << (off & 7));
  }
  return out;
}

std::vector<std::byte> encode_claims(std::span<const Claim> claims,
                                     VertexRange range) {
  std::vector<std::byte> out;
  if (claims.empty()) return out;
  append_header(out, FrontierEncoding::kPairList, claims.size(), range);
  Vertex prev = range.begin;
  for (const Claim& c : claims) {
    SEMBFS_ASSERT(range.contains(c.child) && c.child >= prev);
    append_varint(out, static_cast<std::uint64_t>(c.child - prev));
    append_varint(out, zigzag_encode(c.parent - c.child));
    prev = c.child;
  }
  return out;
}

void or_vertex_set(std::span<const std::byte> data, VertexRange receiver,
                   Bitmap& out) {
  SEMBFS_EXPECTS(receiver.begin >= 0 && receiver.begin <= receiver.end &&
                 static_cast<std::size_t>(receiver.end) <= out.size());
  if (data.empty()) return;
  const codec_detail::Header h = codec_detail::decode_header(data);
  codec_detail::check(h.range_begin >= receiver.begin &&
                          h.range_len <= receiver.end - h.range_begin,
                      "frontier decode: window outside the receiver's range");
  if (h.encoding != FrontierEncoding::kBitmap) {
    decode_vertex_set(data, [&](Vertex v) {
      out.set(static_cast<std::size_t>(v));
    });
    return;
  }

  const std::size_t payload = codec_detail::bitmap_payload_bytes(h);
  codec_detail::check(data.size() - h.pos == payload,
                      "frontier decode: bitmap payload size mismatch");
  const std::byte* bytes = data.data() + h.pos;
  const std::size_t words = (payload + 7) / 8;
  const auto len = static_cast<std::size_t>(h.range_len);
  std::uint64_t members = 0;
  for (std::size_t i = 0; i < words; ++i)
    members += static_cast<std::uint64_t>(
        std::popcount(payload_word(bytes, payload, i)));
  codec_detail::check(
      words == 0 || (payload_word(bytes, payload, words - 1) &
                     ~bitmap_tail_mask(len - 64 * (words - 1))) == 0,
      "frontier decode: bitmap tail bit set");
  codec_detail::check(members == h.count,
                      "frontier decode: bitmap count mismatch");

  // Payload word i covers vertices [begin + 64i, begin + 64i + 64): its
  // low part lands in word first + i and, off a word boundary, its high
  // part in the next word. Every set bit is a member inside `receiver`,
  // so a nonzero part never lands outside `out`.
  std::span<std::uint64_t> dst = out.words();
  const auto first = static_cast<std::size_t>(h.range_begin) / 64;
  const auto shift = static_cast<unsigned>(h.range_begin % 64);
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t word = payload_word(bytes, payload, i);
    if (word == 0) continue;
    dst[first + i] |= word << shift;
    if (shift != 0) {
      if (const std::uint64_t high = word >> (64 - shift); high != 0)
        dst[first + i + 1] |= high;
    }
  }
}

FrontierEncoding encoding_of(std::span<const std::byte> data) {
  if (data.empty()) return FrontierEncoding::kVarintList;
  return codec_detail::decode_header(data).encoding;
}

}  // namespace sembfs::shard
