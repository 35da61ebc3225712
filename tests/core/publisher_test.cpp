#include "core/publisher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cluster/metrics.hpp"
#include "core/serialization.hpp"
#include "graph/generators.hpp"
#include "ranking/centrality.hpp"
#include "ranking/metrics.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"

namespace sgp::core {
namespace {

// Community eigenvalues s·(p_in − p_out) ≈ 73 sit well above the spike
// detection threshold σ·(n·m)^{1/4} ≈ 33 at ε = 2, m = 60 — the regime the
// mechanism's utility theorems address.
graph::PlantedGraph test_sbm(std::uint64_t seed = 1) {
  random::Rng rng(seed);
  return graph::stochastic_block_model({150, 150, 150}, 0.5, 0.01, rng);
}

TEST(PublisherTest, ReleaseShapeAndMetadata) {
  const auto pg = test_sbm();
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 50;
  opt.params = {1.0, 1e-6};
  const RandomProjectionPublisher publisher(opt);
  const auto pub = publisher.publish(pg.graph);
  EXPECT_EQ(pub.data.rows(), 450u);
  EXPECT_EQ(pub.data.cols(), 50u);
  EXPECT_EQ(pub.num_nodes, 450u);
  EXPECT_EQ(pub.projection_dim, 50u);
  EXPECT_DOUBLE_EQ(pub.params.epsilon, 1.0);
  EXPECT_GT(pub.calibration.sigma, 0.0);
  EXPECT_EQ(pub.published_bytes(), 450u * 50u * sizeof(double));
}

TEST(PublisherTest, DeterministicForSeed) {
  const auto pg = test_sbm();
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 30;
  opt.seed = 42;
  const RandomProjectionPublisher publisher(opt);
  const auto a = publisher.publish(pg.graph);
  const auto b = publisher.publish(pg.graph);
  EXPECT_EQ(a.data, b.data);
}

TEST(PublisherTest, NeighborReleasesDifferByAtMostHeaderSensitivity) {
  // Removing edge (u, v) moves row u of Ỹ by P_v and row v by P_u. Both
  // releases use the same options, so P and N are shared and the difference
  // is exactly that change: its Frobenius norm must stay within the
  // sensitivity the release header claims, for every edge. The one-row
  // bound that calibration used to take fails this for almost every edge
  // at m = 256. The graph is a BA tree plus an edge between its two
  // largest hubs.
  random::Rng rng(31);
  const graph::Graph ba = graph::barabasi_albert(256, 1, rng);
  const std::size_t n = ba.num_nodes();
  std::vector<std::uint32_t> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), 0U);
  std::partial_sort(by_degree.begin(), by_degree.begin() + 2, by_degree.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return ba.degree(a) > ba.degree(b);
                    });
  std::vector<graph::Edge> edges = ba.edges();
  const std::uint32_t h1 = std::min(by_degree[0], by_degree[1]);
  const std::uint32_t h2 = std::max(by_degree[0], by_degree[1]);
  if (!ba.has_edge(h1, h2)) edges.push_back({h1, h2});
  const graph::Graph g = graph::Graph::from_edges(n, edges);
  ASSERT_TRUE(g.has_edge(h1, h2));

  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 256;
  opt.seed = 11;
  const RandomProjectionPublisher publisher(opt);
  const PublishedGraph release = publisher.publish(g);
  std::stringstream file;
  save_published(release, file);
  const double sensitivity = load_published(file).calibration.sensitivity;

  double worst = 0.0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    std::vector<graph::Edge> without = edges;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(e));
    const PublishedGraph neighbor =
        publisher.publish(graph::Graph::from_edges(n, without));
    linalg::DenseMatrix diff = release.data;
    diff.add_scaled(neighbor.data, -1.0);
    const double change = diff.frobenius_norm();
    worst = std::max(worst, change);
    EXPECT_LE(change, sensitivity)
        << "edge (" << edges[e].u << ", " << edges[e].v << ")";
  }
  EXPECT_GT(worst, 1.0);  // the releases really differ by two P rows
}

TEST(PublisherTest, DifferentSeedsDifferentReleases) {
  const auto pg = test_sbm();
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 30;
  opt.seed = 1;
  const auto a = RandomProjectionPublisher(opt).publish(pg.graph);
  opt.seed = 2;
  const auto b = RandomProjectionPublisher(opt).publish(pg.graph);
  EXPECT_NE(a.data, b.data);
}

TEST(PublisherTest, ReleaseRecordsCounterRng) {
  const auto pg = test_sbm();
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 30;
  const auto pub = RandomProjectionPublisher(opt).publish(pg.graph);
  EXPECT_EQ(pub.projection_rng, ProjectionRngKind::kCounterV1);
}

TEST(PublisherTest, ProjectionRngTagRoundTrips) {
  EXPECT_EQ(to_string(ProjectionRngKind::kCounterV1), "counter-v1");
  EXPECT_EQ(to_string(ProjectionRngKind::kCounterV1Simd), "counter-v1-simd");
  EXPECT_EQ(parse_projection_rng("counter-v1"), ProjectionRngKind::kCounterV1);
  EXPECT_EQ(parse_projection_rng("counter-v1-simd"),
            ProjectionRngKind::kCounterV1Simd);
  for (const char* gone : {"quantum", "sequential-v0"}) {
    EXPECT_THROW(static_cast<void>(parse_projection_rng(gone)),
                 util::ParseError)
        << gone;
  }
}

// The fused kernel must equal the explicit three-step pipeline — materialize
// the counter-based P, SpMM, perturb — bit for bit, for both kinds. This is
// the reference the memory-saving fusion is allowed to deviate from by
// exactly nothing.
TEST(PublisherTest, FusedPublishMatchesMaterializedReference) {
  const auto pg = test_sbm(2);
  for (ProjectionKind kind :
       {ProjectionKind::kGaussian, ProjectionKind::kAchlioptas}) {
    RandomProjectionPublisher::Options opt;
    opt.projection_dim = 40;
    opt.projection = kind;
    opt.seed = 19;
    const auto pub = RandomProjectionPublisher(opt).publish(pg.graph);

    const auto p = make_projection_counter(pub.num_nodes, 40, kind, 19);
    linalg::DenseMatrix reference =
        pg.graph.adjacency_matrix().multiply_dense(p);
    const random::CounterRng noise = noise_counter_rng(19);
    for (std::size_t i = 0; i < reference.rows(); ++i) {
      auto row = reference.row(i);
      const std::uint64_t base = static_cast<std::uint64_t>(i) * 40;
      for (std::size_t c = 0; c < 40; ++c) {
        row[c] += pub.calibration.sigma * noise.normal(base + c);
      }
    }
    ASSERT_EQ(pub.data, reference) << to_string(kind);
  }
}

TEST(PublisherTest, AllocFaultSurfacesAsResourceError) {
  const std::vector<graph::Edge> edges{{0, 1}};
  const auto g = graph::Graph::from_edges(20, edges);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 5;
  const RandomProjectionPublisher publisher(opt);
  util::arm_fault("alloc");
  EXPECT_THROW((void)publisher.publish(g), util::ResourceError);
  util::disarm_all_faults();
}

TEST(PublisherTest, NoiseMagnitudeMatchesCalibration) {
  // Publish an edgeless graph: Y = 0, so Ỹ is pure noise whose empirical
  // stddev must match σ.
  const auto g = graph::Graph::from_edges(300, {});
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 100;
  opt.params = {1.0, 1e-6};
  const auto pub = RandomProjectionPublisher(opt).publish(g);
  double sum2 = 0;
  for (double v : pub.data.data()) sum2 += v * v;
  const double empirical =
      std::sqrt(sum2 / static_cast<double>(pub.data.data().size()));
  EXPECT_NEAR(empirical, pub.calibration.sigma,
              0.05 * pub.calibration.sigma);
}

TEST(PublisherTest, HigherEpsilonLessNoise) {
  const auto pg = test_sbm();
  RandomProjectionPublisher::Options lo;
  lo.projection_dim = 40;
  lo.params = {0.2, 1e-6};
  RandomProjectionPublisher::Options hi = lo;
  hi.params = {5.0, 1e-6};
  const auto pub_lo = RandomProjectionPublisher(lo).publish(pg.graph);
  const auto pub_hi = RandomProjectionPublisher(hi).publish(pg.graph);
  EXPECT_GT(pub_lo.calibration.sigma, pub_hi.calibration.sigma);
}

TEST(PublisherTest, InvalidOptionsThrow) {
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 0;
  EXPECT_THROW(RandomProjectionPublisher{opt}, std::invalid_argument);
  opt.projection_dim = 10;
  opt.params = {0.0, 1e-6};
  EXPECT_THROW(RandomProjectionPublisher{opt}, std::invalid_argument);
}

TEST(PublisherTest, ProjectionDimExceedingNThrows) {
  const auto g = graph::Graph::from_edges(5, {});
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 10;
  const RandomProjectionPublisher publisher(opt);
  EXPECT_THROW((void)publisher.publish(g), std::invalid_argument);
}

TEST(PublisherTest, AchlioptasProjectionWorks) {
  const auto pg = test_sbm();
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 60;
  opt.projection = ProjectionKind::kAchlioptas;
  opt.params = {5.0, 1e-6};
  const auto pub = RandomProjectionPublisher(opt).publish(pg.graph);
  EXPECT_EQ(pub.projection, ProjectionKind::kAchlioptas);
  const auto res = cluster_published(pub, 3);
  EXPECT_GT(cluster::normalized_mutual_information(res.assignments, pg.labels),
            0.5);
}

TEST(PublisherIntegrationTest, ClusteringUtilityAtModerateEpsilon) {
  // On this SBM the utility transition sits near ε ≈ 3 (where the community
  // singular values ≈ 73 cross the noise spectral norm σ(√n + √m)); ε = 6 is
  // comfortably on the recovered side.
  const auto pg = test_sbm(3);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 60;
  opt.params = {6.0, 1e-6};
  const auto pub = RandomProjectionPublisher(opt).publish(pg.graph);
  const auto res = cluster_published(pub, 3);
  const double nmi =
      cluster::normalized_mutual_information(res.assignments, pg.labels);
  EXPECT_GT(nmi, 0.7) << "clustering utility collapsed at eps=6";
}

TEST(PublisherIntegrationTest, UtilityDegradesGracefullyWithEpsilon) {
  const auto pg = test_sbm(4);
  auto nmi_at = [&](double eps) {
    RandomProjectionPublisher::Options opt;
    opt.projection_dim = 60;
    opt.params = {eps, 1e-6};
    opt.seed = 11;
    const auto pub = RandomProjectionPublisher(opt).publish(pg.graph);
    const auto res = cluster_published(pub, 3);
    return cluster::normalized_mutual_information(res.assignments, pg.labels);
  };
  // Very high budget should beat a starving budget.
  EXPECT_GT(nmi_at(8.0) + 0.05, nmi_at(0.05));
}

TEST(PublisherIntegrationTest, DegreeRankingUtilityOnHubGraph) {
  // Row norms of the release estimate degrees (JL): on a hub-dominated BA
  // graph the top-50 degree ranking survives publication at moderate ε and
  // drowns at starving ε.
  random::Rng rng(5);
  const auto g = graph::barabasi_albert(1000, 5, rng);
  const auto truth = ranking::degree_centrality(g);

  auto overlap_at = [&](double eps) {
    RandomProjectionPublisher::Options opt;
    opt.projection_dim = 100;
    opt.params = {eps, 1e-6};
    opt.seed = 8;
    const auto pub = RandomProjectionPublisher(opt).publish(g);
    return ranking::top_k_overlap(truth, degree_scores(pub), 50);
  };
  EXPECT_GT(overlap_at(10.0), 0.35);
  EXPECT_GT(overlap_at(10.0), overlap_at(0.5));
}

TEST(PublisherIntegrationTest, EigenRankingUtilityAtGenerousBudget) {
  random::Rng rng(5);
  const auto g = graph::barabasi_albert(1000, 5, rng);
  const auto truth = ranking::eigenvector_centrality(g);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 100;
  opt.params = {100.0, 1e-6};
  const auto pub = RandomProjectionPublisher(opt).publish(g);
  EXPECT_GT(ranking::top_k_overlap(truth, centrality_scores(pub), 50), 0.4);
}

TEST(PublisherTest, DegreeScoresDebiasedOnEmptyGraph) {
  // Empty graph: every true degree is 0, so debiased scores should center
  // on 0 rather than on m·σ².
  const auto g = graph::Graph::from_edges(400, {});
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 100;
  opt.params = {1.0, 1e-6};
  const auto pub = RandomProjectionPublisher(opt).publish(g);
  const auto scores = degree_scores(pub);
  double mean = 0;
  for (double s : scores) mean += s;
  mean /= static_cast<double>(scores.size());
  const double sigma2 = pub.calibration.sigma * pub.calibration.sigma;
  EXPECT_LT(std::fabs(mean), 0.2 * 100.0 * sigma2);
}

TEST(PublisherIntegrationTest, SpectralEmbeddingApproximatesTopEigenvector) {
  const auto pg = test_sbm(6);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 80;
  opt.params = {8.0, 1e-6};
  const auto pub = RandomProjectionPublisher(opt).publish(pg.graph);
  const auto emb = spectral_embedding(pub, 1);
  const auto truth = ranking::eigenvector_centrality(pg.graph);
  // |cos| similarity between |u1| of the release and the true Perron vector.
  double dot = 0, nrm = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    dot += std::fabs(emb(i, 0)) * truth[i];
    nrm += emb(i, 0) * emb(i, 0);
  }
  EXPECT_GT(dot / std::sqrt(nrm), 0.85);
}

TEST(PublisherTest, SpectralEmbeddingInvalidKThrows) {
  const auto pg = test_sbm(7);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 20;
  const auto pub = RandomProjectionPublisher(opt).publish(pg.graph);
  EXPECT_THROW((void)spectral_embedding(pub, 0), std::invalid_argument);
  EXPECT_THROW((void)spectral_embedding(pub, 21), std::invalid_argument);
}

}  // namespace
}  // namespace sgp::core
