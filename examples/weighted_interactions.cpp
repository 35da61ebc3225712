// Publishing a *weighted* interaction matrix — the abstract's general
// "publishing matrices with differential privacy" setting.
//
// Scenario: instead of friendship bits, the provider holds interaction
// strengths (message counts per pair, capped at w_max by policy). The
// mechanism generalizes: one interaction changing by at most w_max scales
// the row sensitivity linearly. We publish the weighted matrix and verify
// the analyst still recovers the strong-tie community structure.
//
//   ./weighted_interactions [--epsilon 8] [--w-max 5] [--dim 64] [--seed 7]
#include <algorithm>
#include <cstdio>

#include "cluster/metrics.hpp"
#include "core/publisher.hpp"
#include "graph/generators.hpp"
#include "random/distributions.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const double epsilon = args.get_double("epsilon", 8.0);
  const double w_max = args.get_double("w-max", 5.0);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 64));
  const auto seed = args.get_uint64("seed", 7);

  // Build a weighted interaction matrix: SBM topology, within-community
  // interactions are strong (2..w_max messages), cross ones weak (1).
  sgp::random::Rng rng(seed);
  const auto planted =
      sgp::graph::stochastic_block_model({150, 150, 150}, 0.4, 0.03, rng);
  std::vector<sgp::linalg::Triplet> trips;
  for (const auto& e : planted.graph.edges()) {
    const bool strong = planted.labels[e.u] == planted.labels[e.v];
    const double w =
        strong ? 2.0 + static_cast<double>(rng.next_below(
                           static_cast<std::uint64_t>(w_max) - 1))
               : 1.0;
    trips.push_back({e.u, e.v, w});
    trips.push_back({e.v, e.u, w});
  }
  const auto n = planted.graph.num_nodes();
  const auto interactions =
      sgp::linalg::CsrMatrix::from_triplets(n, n, trips);
  std::printf("interaction matrix: %zu users, %zu weighted pairs, w_max=%g\n",
              n, interactions.nnz() / 2, w_max);

  // Publish under the weighted neighboring relation.
  sgp::core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = dim;
  opt.params = {epsilon, 1e-6};
  opt.seed = seed;
  const sgp::core::RandomProjectionPublisher publisher(opt);
  const auto release = publisher.publish_matrix(interactions, w_max);
  std::printf(
      "published %zu x %zu, sigma=%.3f (= %g x the unweighted calibration), "
      "%s\n",
      release.data.rows(), release.data.cols(), release.calibration.sigma,
      w_max, release.params.to_string().c_str());

  // Analyst: strong-tie communities from the weighted release.
  const auto clusters = sgp::core::cluster_published(release, 3, seed);
  std::printf("clustering NMI vs ground truth: %.3f\n",
              sgp::cluster::normalized_mutual_information(
                  clusters.assignments, planted.labels));

  // Compare with publishing only the 0/1 skeleton at the same budget.
  const auto binary_release = publisher.publish(planted.graph);
  const auto binary_clusters =
      sgp::core::cluster_published(binary_release, 3, seed);
  std::printf("  (0/1 skeleton at the same budget: NMI %.3f — weights carry "
              "extra signal but cost w_max x noise)\n",
              sgp::cluster::normalized_mutual_information(
                  binary_clusters.assignments, planted.labels));
  return 0;
}
