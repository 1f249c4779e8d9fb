// Wire format for the sharded BFS frontier exchange.
//
// Every message the shard::MessageBus carries is a fully serialized byte
// string in one of three encodings, chosen per message:
//
//   header (all encodings):
//     byte 0           encoding tag (kVarintList = 1, kBitmap = 2,
//                      kPairList = 3)
//     varint           element count (vertices, or pairs for kPairList)
//     varint           range_begin  — first vertex the message may name
//     varint           range_len    — message covers [range_begin,
//                      range_begin + range_len)
//   payload:
//     kVarintList      `count` varints: v[0] - range_begin, then strictly
//                      positive gaps v[i] - v[i-1]. The sparse-frontier
//                      encoding — a few bytes per member.
//     kBitmap          ceil(range_len / 8) bytes; bit b of byte k set iff
//                      vertex range_begin + 8k + b is a member. The
//                      dense-frontier encoding — size independent of the
//                      member count, which is what makes the bottom-up
//                      allgather cheap at the peak levels.
//     kPairList        `count` (child, parent) claims, children
//                      non-decreasing: varint child gap (first child
//                      relative to range_begin), then
//                      varint zigzag(parent - child). Parents of graph
//                      neighbors are numerically close to their children
//                      often enough that the zigzag delta beats 8 bytes.
//
// EncodingChoice::kAuto picks per message by encoded size: the vertex set
// is varint-encoded first and replaced by the bitmap when that payload
// would not be larger (deterministic — depends only on the message
// contents, never on timing). Every varint takes at least one byte, so a
// set with at least as many members as the bitmap payload has bytes goes
// straight to the bitmap. Claims are always kPairList; the bitmap cannot
// carry parents.
//
// Decoding is bounds-checked end to end (reusing the nvm varint decoder's
// NvmIoError discipline): truncated payloads, out-of-range members, or
// unsorted lists throw rather than ingest garbage — a faulted shard must
// not be able to poison its peers' BFS state with a malformed message.
// or_vertex_set is the receiver's bulk decode: it ORs a kBitmap payload
// into a bitmap 64 vertices at a time, at any bit offset of the window,
// and first checks that the window lies inside the receiver's range.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "numa/partition.hpp"
#include "nvm/varint.hpp"
#include "util/bitmap.hpp"

namespace sembfs::shard {

enum class FrontierEncoding : std::uint8_t {
  kVarintList = 1,
  kBitmap = 2,
  kPairList = 3,
};

/// Per-message encoding policy for vertex-set messages.
enum class EncodingChoice {
  kAuto,          ///< smaller of varint list / bitmap, per message
  kForceBitmap,   ///< always kBitmap
  kForceVarint,   ///< always kVarintList
};

[[nodiscard]] const char* encoding_choice_name(EncodingChoice c) noexcept;
/// "auto" | "bitmap" | "varint"; throws std::invalid_argument otherwise.
[[nodiscard]] EncodingChoice encoding_choice_from_name(
    const std::string& name);

/// One (child, parent) claim proposal.
struct Claim {
  Vertex child = kNoVertex;
  Vertex parent = kNoVertex;

  friend bool operator==(const Claim&, const Claim&) = default;
};

/// Encodes `vertices` (strictly ascending, all inside `range`) per
/// `choice`. An empty set encodes to an empty byte string (the bus drops
/// empty sends; decoders accept the empty string as the empty set).
[[nodiscard]] std::vector<std::byte> encode_vertex_set(
    std::span<const Vertex> vertices, VertexRange range,
    EncodingChoice choice);

/// Encodes claims (children non-decreasing, all inside `range`; parents
/// unconstrained). Always kPairList.
[[nodiscard]] std::vector<std::byte> encode_claims(
    std::span<const Claim> claims, VertexRange range);

/// Encoding tag of a serialized message (for per-encoding accounting).
/// Empty messages report kVarintList.
[[nodiscard]] FrontierEncoding encoding_of(std::span<const std::byte> data);

/// Decodes a vertex-set message (kVarintList or kBitmap), calling
/// fn(Vertex) for every member in ascending order. Throws NvmIoError on a
/// malformed message.
template <typename Fn>
void decode_vertex_set(std::span<const std::byte> data, Fn&& fn);

/// ORs the members of a vertex-set message into `out` (bit v is vertex
/// v). The message's window must lie inside `receiver`, which must lie
/// inside `out`. A kBitmap payload is checked whole (size, tail bits,
/// count) and then ORed a 64-bit word at a time; a kVarintList is decoded
/// member by member. Throws NvmIoError on a malformed message or a window
/// outside `receiver`.
void or_vertex_set(std::span<const std::byte> data, VertexRange receiver,
                   Bitmap& out);

/// Decodes a kPairList message, calling fn(child, parent) in message
/// order (children non-decreasing). Throws NvmIoError on a malformed
/// message.
template <typename Fn>
void decode_claims(std::span<const std::byte> data, Fn&& fn);

// ---------------------------------------------------------------------------
// implementation

namespace codec_detail {

struct Header {
  FrontierEncoding encoding;
  std::uint64_t count;
  std::int64_t range_begin;
  std::int64_t range_len;
  std::size_t pos;  ///< payload start
};

/// Reads and checks a header: a known tag, and a window [range_begin,
/// range_begin + range_len) with no negative bound and no overflow.
[[nodiscard]] Header decode_header(std::span<const std::byte> data);

[[nodiscard]] inline std::size_t bitmap_payload_bytes(const Header& h) {
  return static_cast<std::size_t>(h.range_len / 8 + (h.range_len % 8 != 0));
}

void check(bool ok, const char* what);

}  // namespace codec_detail

template <typename Fn>
void decode_vertex_set(std::span<const std::byte> data, Fn&& fn) {
  if (data.empty()) return;
  const codec_detail::Header h = codec_detail::decode_header(data);
  std::size_t pos = h.pos;
  const std::int64_t range_end = h.range_begin + h.range_len;
  if (h.encoding == FrontierEncoding::kVarintList) {
    std::int64_t prev = h.range_begin;
    for (std::uint64_t i = 0; i < h.count; ++i) {
      const std::uint64_t gap = decode_varint(data, pos);
      codec_detail::check(i > 0 ? gap > 0 : true,
                          "frontier decode: unsorted varint list");
      // Checked before the add, which a huge gap would overflow.
      codec_detail::check(gap < static_cast<std::uint64_t>(range_end - prev),
                          "frontier decode: vertex out of range");
      const std::int64_t v = prev + static_cast<std::int64_t>(gap);
      fn(static_cast<Vertex>(v));
      prev = v;
    }
    codec_detail::check(pos == data.size(),
                        "frontier decode: trailing bytes");
  } else {
    codec_detail::check(h.encoding == FrontierEncoding::kBitmap,
                        "frontier decode: vertex set expected");
    const std::size_t payload = codec_detail::bitmap_payload_bytes(h);
    codec_detail::check(data.size() - pos == payload,
                        "frontier decode: bitmap payload size mismatch");
    std::uint64_t seen = 0;
    for (std::size_t k = 0; k < payload; ++k) {
      auto byte = static_cast<std::uint8_t>(data[pos + k]);
      while (byte != 0) {
        const int b = std::countr_zero(byte);
        const std::int64_t v =
            h.range_begin + static_cast<std::int64_t>(8 * k + b);
        codec_detail::check(v < range_end,
                            "frontier decode: bitmap tail bit set");
        fn(static_cast<Vertex>(v));
        ++seen;
        byte = static_cast<std::uint8_t>(byte & (byte - 1));
      }
    }
    codec_detail::check(seen == h.count,
                        "frontier decode: bitmap count mismatch");
  }
}

template <typename Fn>
void decode_claims(std::span<const std::byte> data, Fn&& fn) {
  if (data.empty()) return;
  const codec_detail::Header h = codec_detail::decode_header(data);
  codec_detail::check(h.encoding == FrontierEncoding::kPairList,
                      "claim decode: pair list expected");
  std::size_t pos = h.pos;
  const std::int64_t range_end = h.range_begin + h.range_len;
  std::int64_t child = h.range_begin;
  for (std::uint64_t i = 0; i < h.count; ++i) {
    const std::uint64_t gap = decode_varint(data, pos);
    // Checked before the add, which a huge gap would overflow.
    codec_detail::check(gap < static_cast<std::uint64_t>(range_end - child),
                        "claim decode: child out of range");
    child += static_cast<std::int64_t>(gap);
    // Parents are unconstrained: the delta wraps instead of overflowing.
    const auto parent = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(child) +
        static_cast<std::uint64_t>(zigzag_decode(decode_varint(data, pos))));
    fn(static_cast<Vertex>(child), static_cast<Vertex>(parent));
  }
  codec_detail::check(pos == data.size(), "claim decode: trailing bytes");
}

}  // namespace sembfs::shard
