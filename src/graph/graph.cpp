#include "graph/graph.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "graph/csr_rows.hpp"
#include "util/check.hpp"

namespace sgp::graph {

namespace detail {
namespace {

/// Below this many edges a CSR is built on the calling thread.
constexpr std::size_t kParallelCsrEdges = std::size_t{1} << 15;

/// Rows per task when rows are sorted in parallel.
constexpr std::size_t kSortGrain = 256;

}  // namespace

CsrRows build_csr_rows(std::span<const std::span<const Edge>> parts,
                       std::size_t row_begin, std::size_t row_end,
                       util::ThreadPool* pool) {
  const std::size_t rows = row_end - row_begin;
  std::size_t edges = 0;
  for (const std::span<const Edge> part : parts) edges += part.size();
  // Block b owns rows [lo, hi) and reads every edge, so blocks write
  // disjoint rows and need no merge.
  const std::size_t blocks =
      pool == nullptr || edges < kParallelCsrEdges
          ? 1
          : std::clamp<std::size_t>(rows, 1, pool->size());
  const auto run = [&](std::size_t n, std::size_t grain,
                       const std::function<void(std::size_t, std::size_t)>& body) {
    if (blocks == 1) {
      body(0, n);
    } else {
      util::parallel_for(*pool, 0, n, body, grain);
    }
  };
  const auto for_each_entry = [&](std::size_t b, const auto& place) {
    const std::size_t lo = row_begin + rows * b / blocks;
    const std::size_t hi = row_begin + rows * (b + 1) / blocks;
    for (const std::span<const Edge> part : parts) {
      for (const Edge& e : part) {
        if (e.u >= lo && e.u < hi) place(e.u - row_begin, e.v);
        if (e.v >= lo && e.v < hi) place(e.v - row_begin, e.u);
      }
    }
  };

  CsrRows out;
  // Row lengths, counted into offsets[r + 1]; the prefix sum turns
  // offsets[r] into the start of row r and offsets[rows] into the total.
  out.offsets.assign(rows + 1, 0);
  std::size_t* const offsets = out.offsets.data();
  run(blocks, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      for_each_entry(b, [offsets](std::size_t r, std::uint32_t) {
        ++offsets[r + 1];
      });
    }
  });
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());

  // Each row fills in edge order, so a row of an edge list written sorted
  // (write_edge_list) comes out sorted. Filling moves offsets[r] to the end
  // of row r; shifting by one restores the starts.
  out.adjacency.resize(out.offsets.back());
  std::uint32_t* const adj = out.adjacency.data();
  run(blocks, 1, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      for_each_entry(b, [offsets, adj](std::size_t r, std::uint32_t neighbor) {
        adj[offsets[r]++] = neighbor;
      });
    }
  });
  std::copy_backward(offsets, offsets + rows, offsets + rows + 1);
  offsets[0] = 0;

  // Sort and merge each row, then close the gaps duplicates leave behind.
  std::vector<std::uint32_t> merged(rows);
  run(rows, kSortGrain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      std::uint32_t* const first = adj + offsets[r];
      std::uint32_t* const last = adj + offsets[r + 1];
      if (!std::is_sorted(first, last)) std::sort(first, last);
      merged[r] = static_cast<std::uint32_t>(std::unique(first, last) - first);
    }
  });
  std::size_t kept = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t first = offsets[r];
    offsets[r] = kept;
    if (kept != first) std::copy(adj + first, adj + first + merged[r], adj + kept);
    kept += merged[r];
  }
  offsets[rows] = kept;
  out.adjacency.resize(kept);
  out.adjacency.shrink_to_fit();
  return out;
}

}  // namespace detail

Graph Graph::from_edges(std::size_t num_nodes, std::span<const Edge> edges) {
  for (const Edge& e : edges) {
    util::require(e.u < num_nodes && e.v < num_nodes,
                  "from_edges: endpoint out of range");
    util::require(e.u != e.v, "from_edges: self loops are not allowed");
  }
  const std::span<const Edge> parts[] = {edges};
  return from_rows(detail::build_csr_rows(parts, 0, num_nodes, nullptr));
}

Graph Graph::from_rows(detail::CsrRows rows) {
  Graph g;
  g.offsets_ = std::move(rows.offsets);
  g.adjacency_ = std::move(rows.adjacency);
  return g;
}

std::span<const std::uint32_t> Graph::neighbors(std::size_t u) const {
  util::require(u < num_nodes(), "neighbors: node out of range");
  return {adjacency_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
}

std::size_t Graph::degree(std::size_t u) const {
  util::require(u < num_nodes(), "degree: node out of range");
  return offsets_[u + 1] - offsets_[u];
}

bool Graph::has_edge(std::size_t u, std::size_t v) const {
  util::require(u < num_nodes() && v < num_nodes(),
                "has_edge: node out of range");
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(),
                            static_cast<std::uint32_t>(v));
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (std::size_t u = 0; u < num_nodes(); ++u) {
    for (std::uint32_t v : neighbors(u)) {
      if (u < v) out.push_back({static_cast<std::uint32_t>(u), v});
    }
  }
  return out;
}

linalg::CsrMatrix Graph::adjacency_matrix() const {
  // A default-constructed graph has no offsets at all; zero rows still need
  // the one row_ptr entry.
  std::vector<std::size_t> row_ptr =
      offsets_.empty() ? std::vector<std::size_t>{0} : offsets_;
  return linalg::CsrMatrix::from_sorted_rows(
      num_nodes(), num_nodes(), std::move(row_ptr), adjacency_,
      std::vector<double>(adjacency_.size(), 1.0));
}

double Graph::average_degree() const {
  if (num_nodes() == 0) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(num_nodes());
}

ComponentResult connected_components(const Graph& g) {
  const std::size_t n = g.num_nodes();
  constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
  ComponentResult result;
  result.labels.assign(n, kUnvisited);
  std::vector<std::uint32_t> stack;
  for (std::size_t start = 0; start < n; ++start) {
    if (result.labels[start] != kUnvisited) continue;
    const auto label = static_cast<std::uint32_t>(result.count++);
    stack.push_back(static_cast<std::uint32_t>(start));
    result.labels[start] = label;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (std::uint32_t v : g.neighbors(u)) {
        if (result.labels[v] == kUnvisited) {
          result.labels[v] = label;
          stack.push_back(v);
        }
      }
    }
  }
  return result;
}

}  // namespace sgp::graph
