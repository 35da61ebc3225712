#include "ranking/centrality.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/generators.hpp"
#include "linalg/lanczos.hpp"
#include "ranking/metrics.hpp"

namespace sgp::ranking {
namespace {

graph::Graph star(std::size_t leaves) {
  std::vector<graph::Edge> edges;
  for (std::uint32_t i = 1; i <= leaves; ++i) edges.push_back({0, i});
  return graph::Graph::from_edges(leaves + 1, edges);
}

TEST(DegreeCentralityTest, MatchesDegrees) {
  const auto g = star(4);
  const auto scores = degree_centrality(g);
  EXPECT_DOUBLE_EQ(scores[0], 4.0);
  for (std::size_t i = 1; i <= 4; ++i) EXPECT_DOUBLE_EQ(scores[i], 1.0);
}

TEST(EigenvectorCentralityTest, StarCenterDominates) {
  const auto scores = eigenvector_centrality(star(6));
  for (std::size_t i = 1; i <= 6; ++i) EXPECT_GT(scores[0], scores[i]);
  // Leaves symmetric.
  for (std::size_t i = 2; i <= 6; ++i) EXPECT_NEAR(scores[i], scores[1], 1e-8);
}

TEST(EigenvectorCentralityTest, UnitNormNonNegative) {
  random::Rng rng(1);
  const auto g = graph::barabasi_albert(200, 3, rng);
  const auto scores = eigenvector_centrality(g);
  double norm2 = 0;
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    norm2 += s * s;
  }
  EXPECT_NEAR(norm2, 1.0, 1e-6);
}

TEST(EigenvectorCentralityTest, SatisfiesEigenEquation) {
  random::Rng rng(2);
  const auto g = graph::erdos_renyi(50, 0.2, rng);
  const auto x = eigenvector_centrality(g, 500, 1e-14);
  // A x = λ x with λ = xᵀAx.
  const auto a = g.adjacency_matrix();
  const auto ax = a.multiply_vector(x);
  double lambda = 0;
  for (std::size_t i = 0; i < x.size(); ++i) lambda += x[i] * ax[i];
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(ax[i], lambda * x[i], 1e-6);
  }
}

TEST(EigenvectorCentralityTest, EmptyEdgeSetStaysUniform) {
  const auto g = graph::Graph::from_edges(5, {});
  const auto scores = eigenvector_centrality(g);
  for (double s : scores) EXPECT_NEAR(s, 1.0 / std::sqrt(5.0), 1e-12);
}

TEST(EigenvectorCentralityTest, MatchesLanczosPerronVector) {
  // Two independent solvers on a connected BA graph: centrality's shifted
  // power iteration and Lanczos must find the same unit Perron vector.
  random::Rng rng(12);
  const auto g = graph::barabasi_albert(200, 3, rng);
  const auto a = g.adjacency_matrix();
  linalg::SymmetricOperator op{
      g.num_nodes(), [&a](std::span<const double> x, std::span<double> y) {
        const auto r = a.multiply_vector(x);
        std::copy(r.begin(), r.end(), y.begin());
      }};
  linalg::LanczosOptions opt;
  opt.k = 1;
  const auto top = linalg::lanczos_topk(op, opt);
  ASSERT_TRUE(top.converged);
  const auto scores = eigenvector_centrality(g);
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(scores[u], std::fabs(top.vectors(u, 0)), 1e-6) << u;
  }
}

TEST(EigenvectorCentralityTest, EmptyGraphThrows) {
  EXPECT_THROW(eigenvector_centrality(graph::Graph()), std::invalid_argument);
}

TEST(PageRankTest, SumsToOne) {
  random::Rng rng(3);
  const auto g = graph::barabasi_albert(100, 2, rng);
  const auto pr = pagerank(g);
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-9);
}

TEST(PageRankTest, StarCenterHighest) {
  const auto pr = pagerank(star(5));
  for (std::size_t i = 1; i <= 5; ++i) EXPECT_GT(pr[0], pr[i]);
}

TEST(PageRankTest, RegularGraphIsUniform) {
  // Cycle: every node identical by symmetry.
  std::vector<graph::Edge> edges;
  for (std::uint32_t i = 0; i < 10; ++i) {
    edges.push_back({i, static_cast<std::uint32_t>((i + 1) % 10)});
  }
  const auto g = graph::Graph::from_edges(10, edges);
  const auto pr = pagerank(g);
  for (double p : pr) EXPECT_NEAR(p, 0.1, 1e-9);
}

TEST(PageRankTest, DanglingNodesHandled) {
  // Node 2 is isolated (dangling in the undirected sense of degree 0).
  const auto g =
      graph::Graph::from_edges(3, std::vector<graph::Edge>{{0, 1}});
  const auto pr = pagerank(g);
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-9);
  EXPECT_GT(pr[0], pr[2]);
}

TEST(PageRankTest, InvalidAlphaThrows) {
  const auto g = star(3);
  EXPECT_THROW(pagerank(g, 1.0), std::invalid_argument);
  EXPECT_THROW(pagerank(g, -0.1), std::invalid_argument);
}

TEST(PageRankTest, CorrelatesWithDegreeOnHeavyTailGraph) {
  random::Rng rng(4);
  const auto g = graph::barabasi_albert(500, 3, rng);
  const auto pr = pagerank(g);
  const auto deg = degree_centrality(g);
  EXPECT_GT(spearman_rho(pr, deg), 0.9);
}

TEST(CentralityFromEmbeddingTest, AbsoluteFirstColumn) {
  linalg::DenseMatrix u(3, 2, {-0.5, 1.0, 0.3, 2.0, -0.1, 3.0});
  const auto scores = centrality_from_embedding(u);
  EXPECT_DOUBLE_EQ(scores[0], 0.5);
  EXPECT_DOUBLE_EQ(scores[1], 0.3);
  EXPECT_DOUBLE_EQ(scores[2], 0.1);
}

TEST(CentralityFromEmbeddingTest, EmptyColumnsThrow) {
  EXPECT_THROW(centrality_from_embedding(linalg::DenseMatrix(3, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace sgp::ranking
