// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte strings.
//
// Shared by the durable on-disk logs — the budget ledger (core/ledger.cpp)
// and the shard log (core/distributed_publish.cpp) — whose text records
// each carry a per-record checksum so a torn or bit-flipped line is
// detected on load instead of silently corrupting recovery.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace sgp::util {

namespace detail {
inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}
}  // namespace detail

/// CRC-32 of `bytes`, standard init/final xor (matches zlib's crc32).
[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = detail::crc32_table()[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^
        (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// crc32(bytes) as eight lowercase hex digits, the trailer of a shard-log
/// record and the config CRC a coordinator hands its workers.
[[nodiscard]] inline std::string crc32_hex(std::string_view bytes) {
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", crc32(bytes));
  return hex;
}

}  // namespace sgp::util
