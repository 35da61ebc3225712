// Out-of-core row-shard access to an on-disk edge list.
//
// The publishing mechanism is row-separable (core/sharded_publish.hpp), so a
// publisher never needs the whole graph in memory — only the CSR rows of the
// shard it is currently emitting. EdgeListShardReader provides exactly that:
// an initial streaming pass establishes the node count (and, under
// IdPolicy::kCompact, the first-appearance id remap — the one O(n) structure
// this loader keeps, a few dozen bytes per node versus the O(n·m) doubles of
// a materialized release), after which load_shard() re-streams the file and
// keeps only the edges incident to the requested row range.
//
// Semantics match the in-memory path bit for bit: both run on
// scan_edge_list (graph/io.hpp), so parsing, header handling, id caps and
// self-loop dropping are shared code, and each shard row's neighbor list is
// sorted and deduplicated exactly as Graph::from_edges would produce it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/io.hpp"

namespace sgp::graph {

/// CSR rows [row_begin, row_end) of the full graph's adjacency structure.
/// Neighbor ids are global node ids; per-row lists are sorted ascending with
/// duplicates merged — identical to Graph::neighbors() for the same rows.
struct ShardRows {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::vector<std::size_t> offsets;       ///< size (row_end - row_begin) + 1
  std::vector<std::uint32_t> adjacency;   ///< concatenated neighbor lists

  [[nodiscard]] std::size_t num_rows() const { return row_end - row_begin; }

  /// Neighbors of global row `u` (must lie in [row_begin, row_end)).
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t u) const {
    const std::size_t local = u - row_begin;
    return {adjacency.data() + offsets[local],
            offsets[local + 1] - offsets[local]};
  }
};

/// Streams row shards of an edge-list file without materializing the graph.
/// Construction performs one full scan (node count, edge count, id remap);
/// each load_shard() performs another. Working memory per load_shard() is
/// O(|E_shard|) plus the persistent remap.
class EdgeListShardReader {
 public:
  /// Opens and scans `path`. Throws util::IoError if unreadable and
  /// util::ParseError on malformed content (same grammar as read_edge_list).
  explicit EdgeListShardReader(
      std::string path, IdPolicy policy = IdPolicy::kCompact,
      std::uint64_t max_preserved_id = kDefaultMaxPreservedNodeId);

  /// Node count of the full graph — equals read_edge_list(...).num_nodes().
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

  /// Edge records accepted by the scan (before undirected deduplication).
  [[nodiscard]] std::size_t edge_records() const { return edge_records_; }

  /// 64-bit fingerprint of the accepted records (raw ids, in file order),
  /// folded during the construction scan. Readers of the same edge list
  /// agree on it; a changed list almost surely changes it.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Loads CSR rows [row_begin, row_end). Requires row_begin <= row_end and
  /// row_end <= num_nodes(). Re-reads the file; throws util::IoError if it
  /// changed shape since construction (defensive — the scan counts must
  /// still match).
  [[nodiscard]] ShardRows load_shard(std::size_t row_begin,
                                     std::size_t row_end) const;

 private:
  std::string path_;
  IdPolicy policy_;
  std::uint64_t max_preserved_id_;
  std::size_t num_nodes_ = 0;
  std::size_t edge_records_ = 0;
  std::uint64_t fingerprint_ = 0;
  /// kCompact only: raw file id -> dense node index, first-appearance order.
  std::unordered_map<std::uint64_t, std::uint32_t> remap_;
};

}  // namespace sgp::graph
