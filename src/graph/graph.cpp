#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "graph/csr_rows.hpp"
#include "util/check.hpp"

namespace sgp::graph {

namespace detail {

CsrRows build_csr_rows(std::span<const Edge> edges, std::size_t row_begin,
                       std::size_t row_end) {
  const std::size_t rows = row_end - row_begin;
  const auto in_range = [&](std::uint32_t node) {
    return node >= row_begin && node < row_end;
  };
  CsrRows out;
  // Row lengths; the prefix sum turns offsets[r] into the end of row r and
  // offsets[rows] into the total.
  out.offsets.assign(rows + 1, 0);
  for (const Edge& e : edges) {
    if (in_range(e.u)) ++out.offsets[e.u - row_begin];
    if (in_range(e.v)) ++out.offsets[e.v - row_begin];
  }
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());

  // Filling each row from its end leaves offsets[r] at the start of row r.
  out.adjacency.resize(out.offsets.back());
  for (const Edge& e : edges) {
    if (in_range(e.u)) out.adjacency[--out.offsets[e.u - row_begin]] = e.v;
    if (in_range(e.v)) out.adjacency[--out.offsets[e.v - row_begin]] = e.u;
  }

  // Sort and merge each row, closing the gaps duplicates leave behind.
  std::uint32_t* const adj = out.adjacency.data();
  std::size_t kept = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    std::uint32_t* const first = adj + out.offsets[r];
    std::uint32_t* last = adj + out.offsets[r + 1];
    std::sort(first, last);
    last = std::unique(first, last);
    out.offsets[r] = kept;
    if (adj + kept != first) std::copy(first, last, adj + kept);
    kept += static_cast<std::size_t>(last - first);
  }
  out.offsets[rows] = kept;
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
  detail::CsrRows rows = detail::build_csr_rows(edges, 0, num_nodes);
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
