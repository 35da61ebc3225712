// The sort-free CSR build under random edge lists: Graph::from_edges (a
// counting sort by row, then a sort of each row) must equal the sort over
// every directed pair that it replaced, and Graph::adjacency_matrix (the
// graph's arrays adopted by CsrMatrix::from_sorted_rows) must equal
// from_triplets of the same pattern, entry for entry. Inputs carry
// duplicates in both orientations and isolated nodes, down to n = 0 and 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/sparse_matrix.hpp"
#include "random/rng.hpp"

namespace sgp {
namespace {

/// Neighbor lists from sorting and deduplicating every directed pair.
std::vector<std::vector<std::uint32_t>> sort_based_rows(
    std::size_t n, const std::vector<graph::Edge>& edges) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> directed;
  for (const graph::Edge& e : edges) {
    directed.emplace_back(e.u, e.v);
    directed.emplace_back(e.v, e.u);
  }
  std::sort(directed.begin(), directed.end());
  directed.erase(std::unique(directed.begin(), directed.end()),
                 directed.end());
  std::vector<std::vector<std::uint32_t>> rows(n);
  for (const auto& [u, v] : directed) rows[u].push_back(v);
  return rows;
}

/// `count` random edges over the lower three quarters of [0, n), so the top
/// nodes stay isolated; about a third repeat an earlier edge, half of those
/// reversed.
std::vector<graph::Edge> random_edges(std::size_t n, std::size_t count,
                                      std::uint64_t seed) {
  std::vector<graph::Edge> edges;
  const std::size_t span = n - n / 4;
  if (span < 2) return edges;
  random::Rng rng(seed);
  while (edges.size() < count) {
    if (!edges.empty() && rng.next_below(3) == 0) {
      const graph::Edge e = edges[rng.next_below(edges.size())];
      edges.push_back(rng.next_below(2) == 0 ? e : graph::Edge{e.v, e.u});
      continue;
    }
    const auto u = static_cast<std::uint32_t>(rng.next_below(span));
    const auto v = static_cast<std::uint32_t>(rng.next_below(span));
    if (u != v) edges.push_back({u, v});
  }
  return edges;
}

class CsrBuildProperty
    : public testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(CsrBuildProperty, FromEdgesMatchesSortBasedReference) {
  const auto [n, count, seed] = GetParam();
  const auto edges = random_edges(n, count, seed);
  const graph::Graph g = graph::Graph::from_edges(n, edges);
  const auto want = sort_based_rows(n, edges);
  ASSERT_EQ(g.num_nodes(), n);
  std::size_t directed = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const auto got = g.neighbors(u);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want[u])
        << "row " << u;
    directed += want[u].size();
  }
  EXPECT_EQ(g.num_edges(), directed / 2);
}

TEST_P(CsrBuildProperty, AdjacencyMatrixMatchesFromTriplets) {
  const auto [n, count, seed] = GetParam();
  const graph::Graph g =
      graph::Graph::from_edges(n, random_edges(n, count, seed));
  std::vector<linalg::Triplet> trips;
  for (std::size_t u = 0; u < n; ++u) {
    for (const std::uint32_t v : g.neighbors(u)) {
      trips.push_back({static_cast<std::uint32_t>(u), v, 1.0});
    }
  }
  const auto want = linalg::CsrMatrix::from_triplets(n, n, std::move(trips));
  const auto got = g.adjacency_matrix();
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.nnz(), want.nnz());
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_TRUE(std::ranges::equal(got.row_indices(r), want.row_indices(r)))
        << "row " << r;
    EXPECT_TRUE(std::ranges::equal(got.row_values(r), want.row_values(r)))
        << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CsrBuildProperty,
    testing::Combine(testing::Values<std::size_t>(0, 1, 2, 9, 200, 3000),
                     testing::Values<std::size_t>(0, 6, 500, 20000),
                     testing::Values<std::uint64_t>(1, 2)));

TEST(CsrBuildEdgeCases, DefaultGraphHasAnEmptyAdjacencyMatrix) {
  const auto a = graph::Graph().adjacency_matrix();
  EXPECT_EQ(a.rows(), 0u);
  EXPECT_EQ(a.nnz(), 0u);
}

}  // namespace
}  // namespace sgp
