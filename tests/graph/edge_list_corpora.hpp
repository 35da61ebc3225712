// Malformed and hostile edge lists shared by the parser fuzz suite
// (integration/failure_injection_test.cpp), the scanner differential test
// (graph/edge_scanner_differential_test.cpp) and the shard loader test, plus
// the generated megabytes the last two cut into ranges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "random/rng.hpp"

namespace sgp::graph::corpora {

/// The scanner's read size: generated_edge_list puts a line across every
/// multiple of it.
inline constexpr std::size_t kScannerBufferBytes = 64 * 1024;

inline std::vector<std::string> garbage_edge_lists() {
  return {"", "\n\n\n", "0", "0 1 2", "a b", "0 a",
          "99999999999999999999999 1",
          "-1 2", "0 1\n1", "0 1\nxyzzy", "# only\n# comments",
          "0 0\n0 0\n0 0", "1 2 # ok\n3", "\t \t", "0\t1\n2\t3"};
}

inline std::vector<std::string> hostile_edge_lists() {
  return {
      // One hostile line asking for a multi-GB node array.
      std::string("4294967295 1"),            // 2^32 - 1 (max uint32)
      std::string("4294967296 1"),            // 2^32 (overflows uint32)
      std::string("2147483648 0"),            // 2^31 (above the 2^26 preserve cap)
      std::string("18446744073709551615 1"),  // uint64 max
      std::string("0 99999999999999999999"),  // overflows uint64 itself
      // Embedded NUL bytes (mid-line and a NUL-only line).
      std::string("0 1\0 2\n3 4\n", 12),
      std::string("\0\0\n0 1\n", 7),
      // CRLF line endings from a Windows-exported edge list.
      std::string("0 1\r\n2 3\r\n"),
      std::string("0 1\r\r\n"),
      // Headers that lie about the node count (kPreserve trusts them).
      std::string("# sgp edge list: 99999999999 nodes, 1 edges\n0 1\n"),
      std::string("# sgp edge list: 4294967297 nodes, 1 edges\n0 1\n"),
      std::string("# sgp edge list: -7 nodes, 1 edges\n0 1\n"),
      std::string("# sgp edge list: twelve nodes, 1 edges\n0 1\n"),
      std::string("0 1\n# sgp edge list: 2147483650 nodes, 0 edges\n")};
}

/// Lines whose ids carry a sign. operator>> accepted them and wrapped the
/// value ("-1" became 2^64 - 1, "1+2" the edge (1, 2)); the scanner rejects
/// them.
inline std::vector<std::string> signed_id_edge_lists() {
  return {"-1 2\n", "1 -2\n", "1+2\n", "+1 2\n", "-0 3\n", "4 +5\n",
          "0 1\n-18446744073709551615 7\n"};
}

/// A few MB of every line shape the grammar allows: edge lines with
/// `\v`/`\f`/tab/CR padding, leading zeros, trailing comments, self loops and
/// repeats; blank lines; comments; headers; CRLF endings; comment lines of
/// 64 KiB - 1, 64 KiB, 64 KiB + 1 and about 2.3 × 64 KiB bytes. Every 64 KiB
/// boundary of the stream falls inside a line, and the last line has no
/// newline.
inline std::string generated_edge_list(std::uint64_t seed) {
  random::Rng rng(seed);
  const auto pick = [&](const char* chars, std::size_t n) {
    std::string out;
    const std::string_view set(chars);
    for (std::size_t i = 0; i < n; ++i) out += set[rng.next_below(set.size())];
    return out;
  };
  const auto id = [&] {
    std::string digits = std::to_string(rng.next_below(5000));
    if (rng.next_below(16) == 0) digits.insert(0, "00");
    return digits;
  };

  std::string text;
  const std::vector<std::size_t> long_comments = {
      kScannerBufferBytes - 1, kScannerBufferBytes, kScannerBufferBytes + 1, 150'000};
  std::size_t next_long = 0;
  while (text.size() < 3'000'000) {
    std::string line;
    const std::uint64_t kind = rng.next_below(20);
    if (kind == 0) {
      line = "# " + pick("abcdef ghij\t#0123456789", rng.next_below(120));
    } else if (kind == 1) {
      line = pick(" \t\r", rng.next_below(5));
    } else if (kind == 2) {
      line = "# sgp edge list: " + std::to_string(rng.next_below(9000)) +
             " nodes, 12 edges";
    } else if (kind == 3 && next_long < long_comments.size() &&
               text.size() > (next_long + 1) * 500'000) {
      const std::size_t length = long_comments[next_long++];
      line = "#" + std::string(length - 1, 'c');
    } else {
      const std::string u = id();
      const std::string v = kind == 4 ? u : id();  // kind 4: a self loop
      line = pick(" \t\v\f", rng.next_below(3)) + u +
             pick(" \t\v\f\r", 1 + rng.next_below(2)) + v +
             pick(" \t\r", rng.next_below(3));
      if (kind == 5) line += " # trailing note";
    }
    text += line;
    text += rng.next_below(3) == 0 ? "\r\n" : "\n";
  }
  // Push each boundary that would fall between two lines into the line
  // before it; a space before the newline is trailing whitespace.
  for (std::size_t b = kScannerBufferBytes; b < text.size(); b += kScannerBufferBytes) {
    if (text[b - 1] == '\n') text.insert(b - 1, " ");
  }
  text += "17 42";  // the last line has no newline
  return text;
}

}  // namespace sgp::graph::corpora
