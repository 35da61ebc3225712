// Quickstart: publish a social graph with differential privacy and use the
// release for clustering and ranking — the full API surface in ~60 lines.
//
//   ./quickstart [--epsilon 6] [--dim 64] [--seed 7]
#include <cstdio>

#include "cluster/metrics.hpp"
#include "core/publisher.hpp"
#include "graph/generators.hpp"
#include "ranking/centrality.hpp"
#include "ranking/metrics.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const double epsilon = args.get_double("epsilon", 6.0);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 64));
  const auto seed = args.get_uint64("seed", 7);

  // 1. A social graph with three communities and celebrity hubs (in
  //    practice: your real graph, e.g. via sgp::graph::read_edge_list_file).
  sgp::random::Rng rng(seed);
  const auto planted =
      sgp::graph::social_network_model({150, 150, 150}, 0.5, 0.01, 8, rng);
  const auto& graph = planted.graph;
  std::printf("graph: %zu nodes, %zu edges\n", graph.num_nodes(),
              graph.num_edges());

  // 2. Publish with (ε, δ)-differential privacy.
  sgp::core::RandomProjectionPublisher::Options options;
  options.projection_dim = dim;
  options.params = {epsilon, 1e-6};
  options.seed = seed;
  const sgp::core::RandomProjectionPublisher publisher(options);
  const auto published = publisher.publish(graph);
  std::printf("published: %zu x %zu matrix (%zu bytes), sigma=%.3f, %s\n",
              published.data.rows(), published.data.cols(),
              published.published_bytes(), published.calibration.sigma,
              published.params.to_string().c_str());

  // 3a. Application 1 — node clustering from the release alone.
  const auto clusters = sgp::core::cluster_published(published, 3, seed);
  const double nmi = sgp::cluster::normalized_mutual_information(
      clusters.assignments, planted.labels);
  std::printf("clustering: NMI vs ground-truth communities = %.3f\n", nmi);

  // 3b. Application 2 — node ranking from the release alone.
  const auto truth = sgp::ranking::degree_centrality(graph);
  const auto estimate = sgp::core::degree_scores(published);
  const double overlap = sgp::ranking::top_k_overlap(truth, estimate, 45);
  const double tau = sgp::ranking::kendall_tau(truth, estimate);
  std::printf(
      "ranking: top-10%% degree overlap = %.3f (random guess: 0.100), "
      "kendall tau = %.3f\n",
      overlap, tau);
  return 0;
}
