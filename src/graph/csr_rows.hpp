// Internal to graph/: the one CSR row routine under Graph::from_edges, the
// edge-list readers and EdgeListShardReader::load_shard, so the in-memory
// graph and every shard order and merge neighbor lists with the same code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/thread_pool.hpp"

namespace sgp::graph::detail {

/// Rows [row_begin, row_end) of a CSR adjacency structure.
struct CsrRows {
  std::vector<std::size_t> offsets;      ///< size (row_end - row_begin) + 1
  std::vector<std::uint32_t> adjacency;  ///< concatenated neighbor lists
};

/// Builds rows [row_begin, row_end) of the symmetric adjacency of the edges
/// in `parts`, read in place: edge {u, v} puts v in row u and u in row v,
/// wherever that row lies in the range. Every row comes out sorted ascending
/// with duplicates merged, as Graph::neighbors() promises, whatever the
/// parts' order or cut. A counting sort places each neighbor in its row
/// (count, prefix sum, scatter) in edge order; only the rows themselves are
/// sorted, and a row already in order (every row of a sorted edge list) is
/// not, so the cost is O(|E| + rows) plus a sort of each short row. Given a pool, each
/// thread counts and scatters the rows of one block and the rows are sorted
/// in parallel; without one (Graph::from_edges), all of it runs on the
/// calling thread. Self loops must already be rejected or dropped by the
/// caller.
CsrRows build_csr_rows(std::span<const std::span<const Edge>> parts,
                       std::size_t row_begin, std::size_t row_end,
                       util::ThreadPool* pool);

}  // namespace sgp::graph::detail
