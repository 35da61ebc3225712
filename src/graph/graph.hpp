// Undirected simple graph stored as a CSR adjacency structure.
//
// This is the "social network graph" object of the paper: nodes are users,
// edges friendships. The adjacency matrix view (0/1 symmetric CsrMatrix) is
// what the publishing mechanism consumes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/sparse_matrix.hpp"

namespace sgp::graph {

namespace detail {
struct CsrRows;
}  // namespace detail

/// One undirected edge. Orientation is irrelevant; self loops are invalid.
struct Edge {
  std::uint32_t u;
  std::uint32_t v;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  /// Empty graph with no nodes.
  Graph() = default;

  /// Builds from an edge list over nodes {0..n-1}. Self loops are rejected;
  /// duplicate edges (in either orientation) are merged.
  static Graph from_edges(std::size_t num_nodes, std::span<const Edge> edges);

  /// Adopts rows [0, n) built by detail::build_csr_rows (graph/csr_rows.hpp),
  /// which the edge-list readers call on edges they number themselves.
  static Graph from_rows(detail::CsrRows rows);

  [[nodiscard]] std::size_t num_nodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Number of undirected edges.
  [[nodiscard]] std::size_t num_edges() const { return adjacency_.size() / 2; }

  /// Neighbors of `u`, sorted ascending.
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t u) const;

  [[nodiscard]] std::size_t degree(std::size_t u) const;

  /// O(log degree(u)) membership test.
  [[nodiscard]] bool has_edge(std::size_t u, std::size_t v) const;

  /// Each undirected edge once, with u < v, sorted lexicographically.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// The symmetric 0/1 adjacency matrix A.
  [[nodiscard]] linalg::CsrMatrix adjacency_matrix() const;

  /// Average degree 2|E|/n (0 for the empty graph).
  [[nodiscard]] double average_degree() const;

 private:
  std::vector<std::size_t> offsets_;        // size n+1
  std::vector<std::uint32_t> adjacency_;    // concatenated sorted neighbor lists
};

/// Connected-component labels in [0, count); nodes in the same component share
/// a label. Labels are assigned in order of first discovery from node 0.
struct ComponentResult {
  std::vector<std::uint32_t> labels;
  std::size_t count = 0;
};
ComponentResult connected_components(const Graph& g);

}  // namespace sgp::graph
