#include "core/stats_publisher.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"

namespace sgp::core {
namespace {

graph::Graph triangle_chain() {
  // Two triangles sharing node 2: 0-1-2 and 2-3-4.
  return graph::Graph::from_edges(
      5, std::vector<graph::Edge>{
             {0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
}

TEST(DpEdgeCountTest, CentersOnTruth) {
  random::Rng rng(1);
  const auto g = triangle_chain();
  double sum = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    sum += dp_edge_count(g, 1.0, rng).value;
  }
  EXPECT_NEAR(sum / trials, 6.0, 0.05);
}

TEST(DpEdgeCountTest, ScaleMatchesEpsilon) {
  random::Rng rng(2);
  const auto g = triangle_chain();
  EXPECT_DOUBLE_EQ(dp_edge_count(g, 0.5, rng).laplace_scale, 2.0);
  EXPECT_DOUBLE_EQ(dp_edge_count(g, 2.0, rng).laplace_scale, 0.5);
}

TEST(DpEdgeCountTest, NoiseVarianceMatchesLaplace) {
  random::Rng rng(3);
  const auto g = triangle_chain();
  const double eps = 1.0;
  double sum = 0, sum2 = 0;
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    const double v = dp_edge_count(g, eps, rng).value;
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / trials;
  const double var = sum2 / trials - mean * mean;
  EXPECT_NEAR(var, 2.0, 0.2);  // Var(Laplace(1)) = 2b² = 2
}

TEST(DpAverageDegreeTest, PostProcessesEdgeCount) {
  random::Rng rng(4);
  const auto g = triangle_chain();  // avg degree 12/5 = 2.4
  double sum = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    sum += dp_average_degree(g, 1.0, rng).value;
  }
  EXPECT_NEAR(sum / trials, 2.4, 0.05);
}

TEST(DpAverageDegreeTest, EmptyGraphThrows) {
  random::Rng rng(5);
  EXPECT_THROW((void)dp_average_degree(graph::Graph(), 1.0, rng),
               std::invalid_argument);
}

TEST(DpDegreeHistogramTest, CentersOnTruthPerBin) {
  random::Rng rng(6);
  const auto g = triangle_chain();  // degrees: 2,2,4,2,2
  std::vector<double> acc(5, 0.0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const auto h = dp_degree_histogram(g, 2.0, 4, rng);
    ASSERT_EQ(h.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) acc[i] += h[i];
  }
  EXPECT_NEAR(acc[2] / trials, 4.0, 0.2);
  EXPECT_NEAR(acc[4] / trials, 1.0, 0.2);
  EXPECT_NEAR(acc[0] / trials, 0.0, 0.2);
}

TEST(DpDegreeHistogramTest, TruncatesIntoLastBin) {
  random::Rng rng(7);
  const auto g = triangle_chain();  // node 2 has degree 4
  std::vector<double> acc(3, 0.0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const auto h = dp_degree_histogram(g, 2.0, 2, rng);  // bins 0,1,2+
    for (std::size_t i = 0; i < 3; ++i) acc[i] += h[i];
  }
  // Bin 2+ holds the four degree-2 nodes and the degree-4 node.
  EXPECT_NEAR(acc[2] / trials, 5.0, 0.2);
}

TEST(DpDegreeHistogramTest, InvalidEpsilonThrows) {
  random::Rng rng(8);
  EXPECT_THROW(dp_degree_histogram(triangle_chain(), 0.0, 4, rng),
               std::invalid_argument);
}

// 0 used to size the histogram by the graph's true max degree, a length
// that leaks it; SIZE_MAX wrapped the length to 0 and wrote out of bounds.
TEST(DpDegreeHistogramTest, LengthMustBeFixedByTheCaller) {
  random::Rng rng(9);
  for (const std::size_t max_degree :
       {std::size_t{0}, std::numeric_limits<std::size_t>::max()}) {
    EXPECT_THROW(dp_degree_histogram(triangle_chain(), 1.0, max_degree, rng),
                 std::invalid_argument)
        << max_degree;
  }
}

TEST(DpTriangleCountTest, CentersOnTruth) {
  random::Rng rng(9);
  const auto g = triangle_chain();  // 2 triangles
  double sum = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    sum += dp_triangle_count(g, 1.0, 4, rng).value;
  }
  EXPECT_NEAR(sum / trials, 2.0, 0.15);
}

TEST(DpTriangleCountTest, ScaleUsesDegreeBound) {
  random::Rng rng(10);
  const auto g = triangle_chain();
  EXPECT_DOUBLE_EQ(dp_triangle_count(g, 1.0, 4, rng).laplace_scale, 3.0);
  EXPECT_DOUBLE_EQ(dp_triangle_count(g, 3.0, 10, rng).laplace_scale, 3.0);
}

TEST(DpTriangleCountTest, ViolatedBoundThrows) {
  random::Rng rng(11);
  const auto g = triangle_chain();  // max degree 4
  EXPECT_THROW((void)dp_triangle_count(g, 1.0, 3, rng),
               std::invalid_argument);
  EXPECT_THROW((void)dp_triangle_count(g, 1.0, 1, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace sgp::core
