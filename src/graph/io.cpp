#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"

namespace sgp::graph {
namespace {

/// Bytes requested from the stream per read(). The buffer counts toward the
/// resident set of every reader, the sharded publisher's included, so it
/// stays small; it grows only when one line is longer, since lines of any
/// length are accepted.
constexpr std::size_t kScanBufferBytes = 64 * 1024;

/// Blank lines and the tail after the second id may hold only these.
bool is_line_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Whitespace allowed before and between the ids: isspace() in the C
/// locale, minus '\n', which never occurs inside a line.
bool is_field_space(char c) {
  return is_line_space(c) || c == '\v' || c == '\f';
}

/// Parses one unsigned decimal id after optional field whitespace. Returns
/// the position past its digits, or nullptr when there are no digits, the
/// id is signed (from_chars takes no sign for an unsigned type), or it
/// overflows 64 bits.
const char* parse_id(const char* p, const char* end, std::uint64_t& id) {
  while (p != end && is_field_space(*p)) ++p;
  const auto [next, ec] = std::from_chars(p, end, id);
  return ec == std::errc{} ? next : nullptr;
}

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& why) {
  throw util::ParseError("edge list: line " + std::to_string(line_no) + ": " +
                         why);
}

}  // namespace

EdgeScanStats scan_edge_list(
    std::istream& in, IdPolicy policy, std::uint64_t max_preserved_id,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_edge) {
  // The id type caps preserved ids at 2^32 - 1 regardless of the caller's
  // configured limit.
  const std::uint64_t id_cap =
      std::min<std::uint64_t>(max_preserved_id, 0xFFFFFFFFULL);

  EdgeScanStats stats;
  std::size_t line_no = 0;

  // One line, [first, last), without its '\n'.
  const auto scan_line = [&](const char* first, const char* last) {
    ++line_no;
    const auto* hash = static_cast<const char*>(
        std::memchr(first, '#', static_cast<std::size_t>(last - first)));
    if (hash != nullptr) {
      // Our own writer declares the node count in a comment; honor it under
      // kPreserve so trailing isolated nodes survive a round trip.
      if (policy == IdPolicy::kPreserve) {
        std::istringstream header(std::string(hash + 1, last));
        std::string word;
        std::size_t count = 0;
        // Matches "... : <N> nodes ..." from write_edge_list.
        while (header >> word) {
          if (word == "nodes" || word == "nodes,") break;
          std::istringstream num(word);
          std::size_t candidate = 0;
          if (num >> candidate && num.eof()) count = candidate;
        }
        if (word == "nodes" || word == "nodes,") {
          // A lying header is as dangerous as a hostile id: it sizes the
          // node arrays directly.
          if (count > id_cap + 1) {
            parse_fail(line_no,
                       "header declares " + std::to_string(count) +
                           " nodes, above the preserve-policy cap of " +
                           std::to_string(id_cap + 1));
          }
          stats.declared_nodes = std::max(stats.declared_nodes, count);
        }
      }
      last = hash;
    }
    if (std::all_of(first, last, is_line_space)) {
      return;  // blank or comment-only line
    }
    std::uint64_t u_raw = 0;
    std::uint64_t v_raw = 0;
    const char* p = parse_id(first, last, u_raw);
    if (p == nullptr) parse_fail(line_no, "expected a numeric node id");
    p = parse_id(p, last, v_raw);
    if (p == nullptr) parse_fail(line_no, "expected two node ids, got one");
    // Reject anything after the second id that is not whitespace — a third
    // field, stray NUL bytes, or binary garbage all indicate a format the
    // caller did not intend to feed us.
    if (!std::all_of(p, last, is_line_space)) {
      parse_fail(line_no, "unexpected trailing content after the two ids");
    }
    if (u_raw == v_raw) return;  // drop self loop
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
  };

  // Lines are cut out of a fixed buffer refilled with read(); the unfinished
  // line at the end of a fill moves to the front and the next read appends.
  std::vector<char> buffer(kScanBufferBytes);
  std::size_t kept = 0;  // bytes of an unfinished line at the buffer's front
  const char* line = buffer.data();
  for (;;) {
    if (kept == buffer.size()) buffer.resize(2 * buffer.size());
    in.read(buffer.data() + kept,
            static_cast<std::streamsize>(buffer.size() - kept));
    const char* const end =
        buffer.data() + kept + static_cast<std::size_t>(in.gcount());
    line = buffer.data();
    // The kept prefix holds no '\n', so the search starts after it.
    const char* search = buffer.data() + kept;
    while (const auto* newline = static_cast<const char*>(std::memchr(
               search, '\n', static_cast<std::size_t>(end - search)))) {
      scan_line(line, newline);
      line = search = newline + 1;
    }
    kept = static_cast<std::size_t>(end - line);
    if (!in) break;  // end of stream (or a read error, reported below)
    std::memmove(buffer.data(), line, kept);
  }
  if (in.bad()) {
    throw util::IoError("edge list: stream read error at line " +
                        std::to_string(line_no));
  }
  if (kept > 0) scan_line(line, line + kept);  // last line, no '\n'
  stats.lines = line_no;
  // One bulk add per pass, not one per line — keeps the loop clean.
  static obs::Counter& lines_read = obs::counter(obs::names::kIoLinesRead);
  static obs::Counter& edges_read = obs::counter(obs::names::kIoEdgesRead);
  lines_read.add(stats.lines);
  edges_read.add(stats.edge_records);
  return stats;
}

Graph read_edge_list(std::istream& in, IdPolicy policy,
                     std::uint64_t max_preserved_id) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoReadEdges);

  std::unordered_map<std::uint64_t, std::uint32_t> remap;
  std::vector<Edge> edges;
  auto intern = [&](std::uint64_t raw) -> std::uint32_t {
    if (policy == IdPolicy::kPreserve) {
      return static_cast<std::uint32_t>(raw);  // cap enforced by the scan
    }
    return remap.emplace(raw, static_cast<std::uint32_t>(remap.size()))
        .first->second;
  };
  const EdgeScanStats stats = scan_edge_list(
      in, policy, max_preserved_id,
      [&](std::uint64_t u_raw, std::uint64_t v_raw) {
        edges.push_back({intern(u_raw), intern(v_raw)});
      });

  std::size_t num_nodes = remap.size();
  if (policy == IdPolicy::kPreserve) {
    num_nodes = stats.edge_records > 0
                    ? static_cast<std::size_t>(stats.max_raw_id) + 1
                    : 0;
    num_nodes = std::max(num_nodes, stats.declared_nodes);
  }
  timer.attr("nodes", num_nodes).attr("edges", edges.size());
  return Graph::from_edges(num_nodes, edges);
}

Graph read_edge_list_file(const std::string& path, IdPolicy policy,
                          std::uint64_t max_preserved_id) {
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError("cannot open edge list file: " + path);
  }
  return read_edge_list(in, policy, max_preserved_id);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  util::fault_point(util::fault_points::kIoWrite);
  obs::ScopedTimer timer(obs::names::kIoWriteEdges);
  timer.attr("nodes", g.num_nodes()).attr("edges", g.num_edges());
  out << "# sgp edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  for (const Edge& e : g.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
  static obs::Counter& edges_written = obs::counter(obs::names::kIoEdgesWritten);
  edges_written.add(g.num_edges());
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    throw util::IoError("cannot open output file: " + path);
  }
  write_edge_list(g, out);
  out.flush();
  if (!out.good()) {
    throw util::IoError("failed writing edge list to: " + path);
  }
}

}  // namespace sgp::graph
