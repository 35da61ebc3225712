// Out-of-core row-shard access to an on-disk edge list.
//
// The publishing mechanism is row-separable (core/sharded_publish.hpp), so a
// publisher never needs the whole graph in memory — only the CSR rows of the
// shard it is currently emitting. EdgeListShardReader provides exactly that:
// an initial pass over the file establishes the node count (and, under
// IdPolicy::kCompact, the first-appearance id table — the one O(n)
// structure this loader keeps, 16 to 24 bytes per node versus the O(n·m)
// doubles of a materialized release), after which load_shard() reads the
// file again and keeps only the edges incident to the requested row range.
//
// Each pass is one full read of the text, split across a thread pool: a
// regular file is cut at line starts into at most pool-size ranges of at
// least 1 MiB, each pread through its own 64 KiB buffer, and the ranges'
// parts are merged in file order (graph/edge_ranges.hpp). A non-regular
// file (a pipe) is read as one stream.
//
// Semantics match the in-memory path bit for bit: both run the same line
// parser as read_edge_list (graph/io.hpp), so parsing, header handling, id
// caps and self-loop dropping are shared code, and each shard row's
// neighbor list is sorted and deduplicated exactly as Graph::from_edges
// would produce it, whatever the cut.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/id_table.hpp"
#include "graph/io.hpp"
#include "util/thread_pool.hpp"

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

class EdgeListShardReader;

namespace detail {
/// An EdgeListShardReader constructed on `pool` whose scans are cut at
/// `cuts` when given (see EdgeFile::scan in graph/edge_ranges.hpp). Readers
/// plan their cuts; tests force them, to show every cut reads the same
/// shards.
EdgeListShardReader make_shard_reader(
    std::string path, IdPolicy policy, std::uint64_t max_preserved_id,
    util::ThreadPool& pool, std::optional<std::vector<std::uint64_t>> cuts);
}  // namespace detail

/// Streams row shards of an edge-list file without materializing the graph.
/// Construction performs one full scan on the global pool (node count, edge
/// count, fingerprint, id table); each load_shard() performs another on the
/// pool it is given. Working memory per load_shard() is O(|E_shard|) edges
/// in per-range parts, one 64 KiB buffer per range, plus the persistent id
/// table.
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
  /// folded during the construction scan: from 0, each record (u, v) takes
  /// fp ← fp·K + splitmix64(u ^ rotl(v, 32)) with K odd, so a range's fold
  /// joins the one before it as fp·K^records + fp_range for any cut.
  /// Readers of the same edge list agree on it; a changed list almost
  /// surely changes it.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Loads CSR rows [row_begin, row_end) on `pool`. Requires row_begin <=
  /// row_end and row_end <= num_nodes(). Re-reads the file; throws
  /// util::IoError if it changed shape since construction (defensive — the
  /// scan counts must still match).
  [[nodiscard]] ShardRows load_shard(
      std::size_t row_begin, std::size_t row_end,
      util::ThreadPool& pool = util::global_pool()) const;

 private:
  friend EdgeListShardReader detail::make_shard_reader(
      std::string path, IdPolicy policy, std::uint64_t max_preserved_id,
      util::ThreadPool& pool, std::optional<std::vector<std::uint64_t>> cuts);

  EdgeListShardReader(std::string path, IdPolicy policy,
                      std::uint64_t max_preserved_id, util::ThreadPool& pool,
                      std::optional<std::vector<std::uint64_t>> cuts);

  std::string path_;
  IdPolicy policy_;
  std::uint64_t max_preserved_id_;
  /// Where every scan is cut; none: planned per scan.
  std::optional<std::vector<std::uint64_t>> cuts_;
  std::size_t num_nodes_ = 0;
  std::size_t edge_records_ = 0;
  std::uint64_t fingerprint_ = 0;
  /// kCompact only: raw file id -> dense node index, first-appearance order.
  detail::IdTable ids_;
};

}  // namespace sgp::graph
