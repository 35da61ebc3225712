#include "core/reconstruction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/generators.hpp"

namespace sgp::core {
namespace {

struct Setup {
  graph::Graph g;
  PublishedGraph pub;
  linalg::DenseMatrix projection;
  std::uint64_t seed = 13;
};

Setup make_setup(double epsilon, std::size_t m = 128) {
  Setup s;
  random::Rng rng(2);
  s.g = graph::erdos_renyi(400, 0.08, rng);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = m;
  opt.params = {epsilon, 1e-6};
  opt.seed = s.seed;
  s.pub = RandomProjectionPublisher(opt).publish(s.g);
  s.projection = regenerate_projection(s.pub, s.seed);
  return s;
}

TEST(ReconstructionTest, RegeneratedProjectionMatchesShape) {
  const auto s = make_setup(4.0);
  EXPECT_EQ(s.projection.rows(), 400u);
  EXPECT_EQ(s.projection.cols(), 128u);
}

TEST(ReconstructionTest, CounterReleaseRegeneratesExactProjection) {
  // A counter-v1 release round-trips: regenerate_projection must return the
  // exact P the fused publisher consumed, which by definition equals the
  // materialized counter projection for (seed, kind, n, m).
  const auto s = make_setup(4.0);
  ASSERT_EQ(s.pub.projection_rng, ProjectionRngKind::kCounterV1);
  const auto expected = make_projection_counter(
      s.pub.num_nodes, s.pub.projection_dim, s.pub.projection, s.seed);
  EXPECT_EQ(s.projection, expected);
}

TEST(ReconstructionTest, EdgeScoresSeparateEdgesFromNonEdges) {
  const auto s = make_setup(16.0);
  // Average score over true edges should clearly exceed non-edges.
  double edge_sum = 0;
  int edge_count = 0;
  for (const auto& e : s.g.edges()) {
    edge_sum += edge_score(s.pub, s.projection, e.u, e.v);
    if (++edge_count == 500) break;
  }
  double non_edge_sum = 0;
  int non_edge_count = 0;
  random::Rng rng(5);
  while (non_edge_count < 500) {
    const auto u = rng.next_below(400);
    const auto v = rng.next_below(400);
    if (u == v || s.g.has_edge(u, v)) continue;
    non_edge_sum += edge_score(s.pub, s.projection, u, v);
    ++non_edge_count;
  }
  const double edge_mean = edge_sum / edge_count;
  const double non_edge_mean = non_edge_sum / non_edge_count;
  EXPECT_GT(edge_mean, non_edge_mean + 0.3);
  EXPECT_NEAR(non_edge_mean, 0.0, 0.3);
}

TEST(ReconstructionTest, EdgeScoresBatchMatchesSingle) {
  const auto s = make_setup(8.0);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs{
      {0, 1}, {5, 9}, {100, 200}};
  const auto batch = edge_scores(s.pub, s.projection, pairs);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], edge_score(s.pub, s.projection, pairs[i].first,
                                          pairs[i].second));
  }
}

TEST(ReconstructionTest, EdgeScoreValidation) {
  const auto s = make_setup(4.0);
  EXPECT_THROW((void)edge_score(s.pub, s.projection, 400, 0),
               std::invalid_argument);
  const linalg::DenseMatrix wrong(10, 10);
  EXPECT_THROW((void)edge_score(s.pub, wrong, 0, 1), std::invalid_argument);
}

TEST(ReconstructionTest, EdgeCountEstimateNearTruth) {
  const auto s = make_setup(8.0);
  const double estimate = estimate_edge_count(s.pub);
  const double truth = static_cast<double>(s.g.num_edges());
  // JL + noise variance: allow 15% relative error.
  EXPECT_NEAR(estimate, truth, 0.15 * truth);
}

TEST(ReconstructionTest, EdgeCountImprovesWithEpsilon) {
  // Average absolute error over seeds should not grow with epsilon; compare
  // a starving budget against a generous one.
  double err_low = 0, err_high = 0;
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    random::Rng rng(100 + trial);
    const auto g = graph::erdos_renyi(300, 0.1, rng);
    for (double eps : {0.2, 8.0}) {
      RandomProjectionPublisher::Options opt;
      opt.projection_dim = 100;
      opt.params = {eps, 1e-6};
      opt.seed = trial * 3 + 1;
      const auto pub = RandomProjectionPublisher(opt).publish(g);
      const double err = std::fabs(estimate_edge_count(pub) -
                                   static_cast<double>(g.num_edges()));
      (eps < 1.0 ? err_low : err_high) += err;
    }
  }
  EXPECT_GT(err_low, err_high);
}

TEST(ReconstructionTest, DegreeHistogramConcentratesAroundTrueDegrees) {
  const auto s = make_setup(16.0);
  // ER(400, 0.08): degrees ~ Binomial(399, 0.08), mean ≈ 32.
  const auto hist = estimate_degree_histogram(s.pub, 10.0, 10);
  std::size_t total = 0;
  for (std::size_t c : hist) total += c;
  EXPECT_EQ(total, 400u);
  // Most mass should be in bins [2,5] (degrees 20..50).
  const std::size_t central = hist[2] + hist[3] + hist[4];
  EXPECT_GT(central, 250u);
}

TEST(ReconstructionTest, DegreeHistogramValidation) {
  const auto s = make_setup(4.0);
  EXPECT_THROW((void)estimate_degree_histogram(s.pub, 0.0, 5),
               std::invalid_argument);
  EXPECT_THROW((void)estimate_degree_histogram(s.pub, 1.0, 0),
               std::invalid_argument);
}

TEST(PublishMatrixTest, WeightedMatrixScalesSensitivity) {
  random::Rng rng(7);
  const auto g = graph::erdos_renyi(100, 0.1, rng);
  // Weighted interaction matrix: each edge with weight 3.
  std::vector<linalg::Triplet> trips;
  for (const auto& e : g.edges()) {
    trips.push_back({e.u, e.v, 3.0});
    trips.push_back({e.v, e.u, 3.0});
  }
  const auto w = linalg::CsrMatrix::from_triplets(100, 100, trips);

  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 30;
  opt.params = {1.0, 1e-6};
  const RandomProjectionPublisher publisher(opt);
  const auto unit = publisher.publish(g);
  const auto weighted = publisher.publish_matrix(w, 3.0);
  EXPECT_NEAR(weighted.calibration.sigma, 3.0 * unit.calibration.sigma,
              1e-9);
  EXPECT_NEAR(weighted.calibration.sensitivity,
              3.0 * unit.calibration.sensitivity, 1e-9);
}

TEST(PublishMatrixTest, UnitAdjacencyMatchesGraphPublish) {
  random::Rng rng(8);
  const auto g = graph::erdos_renyi(80, 0.15, rng);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 20;
  opt.seed = 3;
  const RandomProjectionPublisher publisher(opt);
  const auto via_graph = publisher.publish(g);
  const auto via_matrix = publisher.publish_matrix(g.adjacency_matrix(), 1.0);
  EXPECT_EQ(via_graph.data, via_matrix.data);
}

TEST(PublishMatrixTest, Validation) {
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 5;
  const RandomProjectionPublisher publisher(opt);
  const auto rect = linalg::CsrMatrix::from_triplets(4, 6, {});
  EXPECT_THROW((void)publisher.publish_matrix(rect, 1.0),
               std::invalid_argument);
  const auto square = linalg::CsrMatrix::from_triplets(6, 6, {});
  EXPECT_THROW((void)publisher.publish_matrix(square, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace sgp::core
