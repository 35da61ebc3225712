// Malformed and hostile edge lists shared by the parser fuzz suite
// (integration/failure_injection_test.cpp) and the scanner differential test
// (graph/edge_scanner_differential_test.cpp).
#pragma once

#include <string>
#include <vector>

namespace sgp::graph::corpora {

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

}  // namespace sgp::graph::corpora
