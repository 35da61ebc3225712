#include "cluster/spectral.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/metrics.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"

namespace sgp::cluster {
namespace {

// A ring lattice's normalized adjacency has eigenvalue 1 above a cluster of
// pairs closing in on it. At 326 nodes (the smallest that does, for this
// seed and dim) Lanczos returns unconverged at its default budget of 100
// iterations; the embedding must retry with the full budget rather than use
// that answer.
TEST(SpectralTest, UnconvergedEmbeddingRetriesWithTheFullBudget) {
  random::Rng rng(1);
  const graph::Graph ring = graph::watts_strogatz(326, 4, 0.0, rng);
  obs::set_metrics_enabled(true);
  obs::Counter& retries = obs::counter(obs::names::kSpectralLanczosRetries);
  obs::Counter& fallbacks = obs::counter(obs::names::kSpectralDenseFallbacks);
  const std::uint64_t retries_before = retries.value();
  const std::uint64_t fallbacks_before = fallbacks.value();
  const linalg::DenseMatrix embedding =
      normalized_spectral_embedding(ring, 2, 7);
  EXPECT_EQ(retries.value() - retries_before, 1u);
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 0u);
  obs::set_metrics_enabled(false);

  // The leading vector is an eigenvector of eigenvalue 1.
  std::vector<double> v(ring.num_nodes());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = embedding(i, 0);
  const std::vector<double> av =
      graph::normalized_adjacency_matrix(ring).multiply_vector(v);
  std::vector<double> residual(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) residual[i] = av[i] - v[i];
  EXPECT_LE(linalg::norm2(residual), linalg::LanczosOptions{}.tolerance);
}

TEST(SpectralTest, EmbeddingShape) {
  random::Rng rng(1);
  const auto pg = graph::stochastic_block_model({40, 40}, 0.4, 0.02, rng);
  const auto emb = adjacency_spectral_embedding(pg.graph, 3);
  EXPECT_EQ(emb.rows(), 80u);
  EXPECT_EQ(emb.cols(), 3u);
}

TEST(SpectralTest, RecoversTwoPlantedCommunities) {
  random::Rng rng(2);
  const auto pg = graph::stochastic_block_model({60, 60}, 0.4, 0.02, rng);
  SpectralOptions opt;
  opt.num_clusters = 2;
  const auto res = spectral_cluster_graph(pg.graph, opt);
  const double nmi =
      normalized_mutual_information(res.assignments, pg.labels);
  EXPECT_GT(nmi, 0.9);
}

TEST(SpectralTest, RecoversFourPlantedCommunities) {
  random::Rng rng(3);
  const auto pg =
      graph::stochastic_block_model({50, 50, 50, 50}, 0.4, 0.01, rng);
  SpectralOptions opt;
  opt.num_clusters = 4;
  opt.seed = 11;
  const auto res = spectral_cluster_graph(pg.graph, opt);
  EXPECT_GT(normalized_mutual_information(res.assignments, pg.labels), 0.85);
}

TEST(SpectralTest, WeakStructureScoresLowerThanStrong) {
  random::Rng rng(4);
  const auto strong = graph::stochastic_block_model({60, 60}, 0.5, 0.01, rng);
  const auto weak = graph::stochastic_block_model({60, 60}, 0.12, 0.08, rng);
  SpectralOptions opt;
  opt.num_clusters = 2;
  const auto rs = spectral_cluster_graph(strong.graph, opt);
  const auto rw = spectral_cluster_graph(weak.graph, opt);
  EXPECT_GE(normalized_mutual_information(rs.assignments, strong.labels),
            normalized_mutual_information(rw.assignments, weak.labels));
}

TEST(SpectralTest, EmbeddingDimTruncates) {
  random::Rng rng(5);
  const auto pg = graph::stochastic_block_model({30, 30}, 0.4, 0.02, rng);
  const auto emb = adjacency_spectral_embedding(pg.graph, 5);
  SpectralOptions opt;
  opt.num_clusters = 2;
  opt.embedding_dim = 2;
  const auto res = cluster_embedding(emb, opt);
  EXPECT_EQ(res.centroids.cols(), 2u);
}

TEST(SpectralTest, HandlesIsolatedNodes) {
  // Two triangles plus two isolated nodes; normalize_rows must not divide
  // by ~zero on the isolated rows.
  const auto g = graph::Graph::from_edges(
      8, std::vector<graph::Edge>{
             {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  SpectralOptions opt;
  opt.num_clusters = 2;
  const auto res = spectral_cluster_graph(g, opt);
  EXPECT_EQ(res.assignments.size(), 8u);
}

TEST(SpectralTest, InvalidDimThrows) {
  random::Rng rng(6);
  const auto g = graph::erdos_renyi(10, 0.5, rng);
  EXPECT_THROW(adjacency_spectral_embedding(g, 0), std::invalid_argument);
  EXPECT_THROW(adjacency_spectral_embedding(g, 11), std::invalid_argument);
}

TEST(SpectralTest, DeterministicForSeed) {
  random::Rng rng(7);
  const auto pg = graph::stochastic_block_model({40, 40}, 0.3, 0.02, rng);
  SpectralOptions opt;
  opt.num_clusters = 2;
  opt.seed = 99;
  const auto r1 = spectral_cluster_graph(pg.graph, opt);
  const auto r2 = spectral_cluster_graph(pg.graph, opt);
  EXPECT_EQ(r1.assignments, r2.assignments);
}

}  // namespace
}  // namespace sgp::cluster
