#include "graph/laplacian.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "graph/generators.hpp"
#include "linalg/eigen_sym.hpp"

namespace sgp::graph {
namespace {

Graph path(std::size_t n) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    edges.push_back({i, static_cast<std::uint32_t>(i + 1)});
  }
  return Graph::from_edges(n, edges);
}

Graph complete(std::size_t n) {
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return Graph::from_edges(n, edges);
}

/// Eigenvalues of N(g), descending.
std::vector<double> normalized_spectrum(const Graph& g) {
  return linalg::symmetric_eigen(normalized_adjacency_matrix(g).to_dense())
      .values;
}

std::size_t count_near(const std::vector<double>& values, double target) {
  std::size_t count = 0;
  for (double v : values) count += std::fabs(v - target) < 1e-10 ? 1 : 0;
  return count;
}

TEST(NormalizedAdjacencyTest, SpectrumBounded) {
  const auto g = path(4);
  const auto norm = normalized_adjacency_matrix(g);
  // Largest |eigenvalue| of N is <= 1; N of a path: check values directly.
  EXPECT_NEAR(norm.at(0, 1), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(norm.at(1, 2), 0.5, 1e-12);
  EXPECT_TRUE(norm.is_symmetric(1e-12));
}

TEST(NormalizedAdjacencyTest, IsolatedNodesAreZeroRows) {
  const auto g = Graph::from_edges(3, std::vector<Edge>{{0, 1}});
  const auto norm = normalized_adjacency_matrix(g);
  EXPECT_DOUBLE_EQ(norm.at(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(norm.at(2, 1), 0.0);
}

TEST(NormalizedAdjacencyTest, EntriesMatchDefinition) {
  // N[u][v] = A[u][v] / sqrt(d_u d_v); degrees 3, 2, 2, 1.
  const auto g =
      Graph::from_edges(4, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  const auto norm = normalized_adjacency_matrix(g).to_dense();
  const auto adj = g.adjacency_matrix().to_dense();
  for (std::size_t u = 0; u < 4; ++u) {
    for (std::size_t v = 0; v < 4; ++v) {
      const double expected =
          adj(u, v) / std::sqrt(static_cast<double>(g.degree(u)) *
                                static_cast<double>(g.degree(v)));
      EXPECT_DOUBLE_EQ(norm(u, v), expected) << u << "," << v;
    }
  }
  EXPECT_DOUBLE_EQ(norm(0, 3), 1.0 / std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(norm(1, 2), 0.5);
}

TEST(NormalizedAdjacencyTest, SqrtDegreeIsEigenvectorOfEigenvalueOne) {
  // (N·√d)_u = Σ_v A[u][v] / √d_u = √d_u, for every graph.
  random::Rng rng(1);
  const auto g = erdos_renyi(50, 0.1, rng);
  std::vector<double> sqrt_degree(50);
  for (std::size_t u = 0; u < 50; ++u) {
    sqrt_degree[u] = std::sqrt(static_cast<double>(g.degree(u)));
  }
  const auto y = normalized_adjacency_matrix(g).multiply_vector(sqrt_degree);
  for (std::size_t u = 0; u < 50; ++u) {
    EXPECT_NEAR(y[u], sqrt_degree[u], 1e-12) << u;
  }
}

TEST(NormalizedAdjacencyTest, UnitEigenvaluesCountComponents) {
  // A triangle, a 4-node path, one edge and an isolated node: eigenvalue 1
  // once per component with edges, −1 once per bipartite one, 0 for the
  // isolated node's zero row.
  const auto g = Graph::from_edges(
      10, std::vector<Edge>{
              {0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}, {7, 8}});
  const auto values = normalized_spectrum(g);
  EXPECT_EQ(count_near(values, 1.0), 3u);
  EXPECT_EQ(count_near(values, -1.0), 2u);
  EXPECT_EQ(count_near(values, 0.0), 1u);
}

TEST(NormalizedAdjacencyTest, PathSpectrumMatchesClosedForm) {
  // The normalized Laplacian of P_n has eigenvalues 1 − cos(πk/(n−1)).
  const std::size_t n = 7;
  const auto values = normalized_spectrum(path(n));
  ASSERT_EQ(values.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(values[k],
                std::cos(M_PI * static_cast<double>(k) /
                         static_cast<double>(n - 1)),
                1e-12)
        << k;
  }
}

TEST(NormalizedAdjacencyTest, CompleteGraphSpectrum) {
  // N(K_n) = (J − I)/(n − 1): eigenvalue 1 once, −1/(n − 1) n − 1 times.
  const auto values = normalized_spectrum(complete(6));
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  for (std::size_t k = 1; k < 6; ++k) EXPECT_NEAR(values[k], -0.2, 1e-12);
}

TEST(NormalizedAdjacencyTest, StrongerCommunitiesRaiseSecondEigenvalue) {
  // The spectral gap 1 − λ2 shrinks as the two blocks separate, which is
  // what lets spectral clustering find them.
  random::Rng rng(2);
  const auto tight = stochastic_block_model({40, 40}, 0.5, 0.01, rng);
  const auto loose = stochastic_block_model({40, 40}, 0.5, 0.2, rng);
  EXPECT_GT(normalized_spectrum(tight.graph)[1],
            normalized_spectrum(loose.graph)[1]);
}

TEST(NormalizedSpectralClusteringTest, RecoversCommunitiesWithHubs) {
  // Degree heterogeneity: hubs distort the raw-adjacency embedding less
  // when the normalized operator is used.
  random::Rng rng(3);
  const auto pg = social_network_model({60, 60}, 0.4, 0.02, 5, rng);
  cluster::SpectralOptions opt;
  opt.num_clusters = 2;
  opt.matrix = cluster::SpectralMatrix::kNormalizedAdjacency;
  const auto res = cluster::spectral_cluster_graph(pg.graph, opt);
  EXPECT_GT(cluster::normalized_mutual_information(res.assignments, pg.labels),
            0.8);
}

TEST(NormalizedSpectralClusteringTest, EmbeddingSpansTopEigenvectors) {
  // Three planted blocks separate N's top three eigenvalues from the bulk,
  // so the embedding must span the dense solver's top-3 eigenspace: every
  // dense eigenvector keeps its unit norm when projected onto it.
  random::Rng rng(5);
  const auto pg = stochastic_block_model({30, 30, 30}, 0.5, 0.02, rng);
  const auto emb = cluster::normalized_spectral_embedding(pg.graph, 3);
  const auto dense = linalg::symmetric_eigen(
      normalized_adjacency_matrix(pg.graph).to_dense());
  ASSERT_GT(dense.values[2] - dense.values[3], 0.2);
  for (std::size_t j = 0; j < 3; ++j) {
    double captured = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      double d = 0.0;
      for (std::size_t i = 0; i < 90; ++i) d += emb(i, c) * dense.vectors(i, j);
      captured += d * d;
    }
    EXPECT_NEAR(captured, 1.0, 1e-8) << "eigenvector " << j;
  }
}

TEST(NormalizedSpectralClusteringTest, EmbeddingShape) {
  random::Rng rng(4);
  const auto g = erdos_renyi(40, 0.2, rng);
  const auto emb = cluster::normalized_spectral_embedding(g, 3);
  EXPECT_EQ(emb.rows(), 40u);
  EXPECT_EQ(emb.cols(), 3u);
}

}  // namespace
}  // namespace sgp::graph
