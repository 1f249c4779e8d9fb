// CRC-32 (IEEE 802.3 polynomial, reflected, table-driven): the checksum
// every offloaded file keeps per raw chunk (NvmBackingFile::chunk_crc) and
// CompressedBlockFile keeps per varint blob.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace sembfs {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

[[nodiscard]] inline std::uint32_t crc32(
    std::span<const std::byte> data) noexcept {
  std::uint32_t c = 0xffffffffu;
  for (const std::byte b : data)
    c = detail::kCrc32Table[(c ^ static_cast<std::uint8_t>(b)) & 0xffu] ^
        (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace sembfs
