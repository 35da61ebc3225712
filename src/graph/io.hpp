// Edge-list IO in the SNAP text format the paper's datasets ship in:
// one "u v" pair per line, '#' comment lines ignored.
//
// Every reader runs one line parser over byte ranges (graph/edge_ranges.hpp):
// a stream is one range; a regular file is cut at line starts into at most
// pool-size ranges of at least 1 MiB, each pread through its own 64 KiB
// buffer on the pool, and the ranges are merged in file order. Node
// numbering, every Graph and every error message and line are those of one
// sequential pass, whatever the cut.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace sgp::graph {

/// How raw node ids in the file map to graph indices.
enum class IdPolicy {
  /// Remap arbitrary (sparse) ids to dense [0, n) in first-appearance order —
  /// what SNAP downloads need. Isolated nodes are not representable.
  kCompact,
  /// Keep numeric ids as indices: node count = max id + 1 (or the count
  /// declared in an "# sgp edge list: N nodes..." header, if larger).
  /// Round-trips write_edge_list exactly, including isolated nodes.
  kPreserve,
};

/// Largest node id accepted under IdPolicy::kPreserve by default: 2^26, so
/// a graph read under the default holds at most 2^26 + 1 nodes, whose CSR
/// offsets take 512 MiB. One hostile line ("2147483648 0") or header
/// would otherwise size a 16 GiB offset array. The paper's largest graph,
/// LiveJournal (4 M nodes), is well below the cap; inputs that legitimately
/// need more pass the cap explicitly (hard limit: 2^32 - 1, the id type).
inline constexpr std::uint64_t kDefaultMaxPreservedNodeId = 1ULL << 26;

/// What one streaming pass over an edge-list stream saw. `max_raw_id` is
/// only meaningful when `edge_records > 0`; `declared_nodes` is the largest
/// node count declared by an "# sgp edge list: N nodes..." header (kPreserve
/// only — kCompact ignores headers, matching read_edge_list).
struct EdgeScanStats {
  std::size_t lines = 0;          ///< lines consumed, including comments
  std::size_t edge_records = 0;   ///< edge lines kept (self loops dropped)
  std::uint64_t max_raw_id = 0;   ///< largest raw endpoint id seen
  std::size_t declared_nodes = 0; ///< header-declared node count (kPreserve)
};

/// One pass over `in` with the line parser under every reader (read_edge_list,
/// read_edge_list_file and the shard loader, graph/shard_loader.hpp),
/// invoking `on_edge(u_raw, v_raw)` for every accepted edge line in order,
/// with *identical* validation and header semantics — so a streaming
/// consumer sees exactly the edge sequence the in-memory reader would.
/// Throws util::ParseError on malformed lines and, under kPreserve, on ids
/// or header node counts above `max_preserved_id`; util::IoError on stream
/// read errors.
EdgeScanStats scan_edge_list(
    std::istream& in, IdPolicy policy, std::uint64_t max_preserved_id,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_edge);

/// Parses an edge list from a stream. Self loops are dropped; duplicate
/// edges merged. Throws util::ParseError on malformed lines, and — under
/// kPreserve — on node ids or declared header node counts above
/// `max_preserved_id` (ignored under kCompact, which remaps ids).
Graph read_edge_list(std::istream& in, IdPolicy policy = IdPolicy::kCompact,
                     std::uint64_t max_preserved_id = kDefaultMaxPreservedNodeId);

/// Loads from a file path on the global pool: a regular file is read in
/// ranges, a non-regular one (a pipe) as one stream. The graph is the one
/// read_edge_list gives for the same bytes. Throws util::IoError if
/// unreadable, util::ParseError as read_edge_list does.
Graph read_edge_list_file(const std::string& path,
                          IdPolicy policy = IdPolicy::kCompact,
                          std::uint64_t max_preserved_id = kDefaultMaxPreservedNodeId);

/// Writes "u v" per undirected edge (u < v), preceded by a header comment
/// declaring the node count (understood by IdPolicy::kPreserve readers).
void write_edge_list(const Graph& g, std::ostream& out);

/// Saves to a file path. Throws util::IoError if unwritable.
void write_edge_list_file(const Graph& g, const std::string& path);

}  // namespace sgp::graph
