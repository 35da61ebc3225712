// The line-at-a-time edge-list scanner that graph::scan_edge_list replaced:
// std::getline per line, std::istringstream per field. Kept verbatim as the
// test oracle for the chunked from_chars scanner — both must agree on every
// input except one: operator>> into uint64_t accepts a sign and wraps the
// value ("-1" reads 2^64 - 1), which the production scanner now rejects.
// Unlike scan_edge_list it updates no io.* counters.
//
// read_edge_list below is the one-pass reader on top of it that the range
// readers replaced: a std::unordered_map first-appearance remap and a
// record-by-record fingerprint fold, the oracle for any cut of a file.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <istream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "util/errors.hpp"
#include "util/splitmix.hpp"

namespace sgp::graph::reference {

inline EdgeScanStats scan_edge_list(
    std::istream& in, IdPolicy policy, std::uint64_t max_preserved_id,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_edge) {
  constexpr const char* kLineWhitespace = " \t\r";
  const auto parse_fail = [](std::size_t line_no, const std::string& why) {
    throw util::ParseError("edge list: line " + std::to_string(line_no) +
                           ": " + why);
  };
  const std::uint64_t id_cap =
      std::min<std::uint64_t>(max_preserved_id, 0xFFFFFFFFULL);

  EdgeScanStats stats;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      if (policy == IdPolicy::kPreserve) {
        std::istringstream header(line.substr(hash + 1));
        std::string word;
        std::size_t count = 0;
        while (header >> word) {
          if (word == "nodes" || word == "nodes,") break;
          std::istringstream num(word);
          std::size_t candidate = 0;
          if (num >> candidate && num.eof()) count = candidate;
        }
        if (word == "nodes" || word == "nodes,") {
          if (count > id_cap + 1) {
            parse_fail(line_no,
                       "header declares " + std::to_string(count) +
                           " nodes, above the preserve-policy cap of " +
                           std::to_string(id_cap + 1));
          }
          stats.declared_nodes = std::max(stats.declared_nodes, count);
        }
      }
      line.erase(hash);
    }
    if (line.find_first_not_of(kLineWhitespace) == std::string::npos) {
      continue;
    }
    std::istringstream fields(line);
    std::uint64_t u_raw, v_raw;
    if (!(fields >> u_raw)) {
      parse_fail(line_no, "expected a numeric node id");
    }
    if (!(fields >> v_raw)) {
      parse_fail(line_no, "expected two node ids, got one");
    }
    fields.clear();
    std::string trailing;
    std::getline(fields, trailing);
    if (trailing.find_first_not_of(kLineWhitespace) != std::string::npos) {
      parse_fail(line_no, "unexpected trailing content after the two ids");
    }
    if (u_raw == v_raw) continue;
    if (policy == IdPolicy::kPreserve) {
      const std::uint64_t hi = std::max(u_raw, v_raw);
      if (hi > id_cap) {
        parse_fail(line_no, "node id " + std::to_string(hi) +
                                " exceeds the preserve-policy cap of " +
                                std::to_string(id_cap));
      }
      stats.max_raw_id = std::max(stats.max_raw_id, hi);
    }
    ++stats.edge_records;
    on_edge(u_raw, v_raw);
  }
  if (in.bad()) {
    throw util::IoError("edge list: stream read error at line " +
                        std::to_string(line_no));
  }
  stats.lines = line_no;
  return stats;
}

/// What the one-pass reader read.
struct Read {
  Graph graph;
  EdgeScanStats stats;
  std::uint64_t fingerprint = 0;  ///< EdgeListShardReader::fingerprint()
};

/// The reference scan, numbered under kCompact in first-appearance order by
/// a std::unordered_map, with EdgeListShardReader's fingerprint folded one
/// record at a time: fp ← fp·K + splitmix64(u ^ rotl(v, 32)).
inline Read read_edge_list(std::istream& in, IdPolicy policy,
                           std::uint64_t max_preserved_id) {
  constexpr std::uint64_t kFoldMultiplier = 0x9e3779b97f4a7c15ULL;
  std::unordered_map<std::uint64_t, std::uint32_t> remap;
  const auto intern = [&](std::uint64_t raw) -> std::uint32_t {
    if (policy == IdPolicy::kPreserve) return static_cast<std::uint32_t>(raw);
    return remap.emplace(raw, static_cast<std::uint32_t>(remap.size()))
        .first->second;
  };
  Read out;
  std::vector<Edge> edges;
  out.stats = reference::scan_edge_list(
      in, policy, max_preserved_id, [&](std::uint64_t u, std::uint64_t v) {
        out.fingerprint = out.fingerprint * kFoldMultiplier +
                          util::splitmix64(u ^ std::rotl(v, 32));
        edges.push_back({intern(u), intern(v)});
      });
  std::size_t num_nodes = remap.size();
  if (policy == IdPolicy::kPreserve) {
    num_nodes = out.stats.edge_records > 0
                    ? static_cast<std::size_t>(out.stats.max_raw_id) + 1
                    : 0;
    num_nodes = std::max(num_nodes, out.stats.declared_nodes);
  }
  out.graph = Graph::from_edges(num_nodes, edges);
  return out;
}

}  // namespace sgp::graph::reference
