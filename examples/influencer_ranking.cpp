// Influencer identification from a privately published graph.
//
// Scenario: a marketing analyst receives only the DP release of a social
// graph and must shortlist the most influential users. We compare the
// shortlist against the ground-truth ranking the provider could compute
// in-house.
//
//   ./influencer_ranking [--nodes 2000] [--attach 5] [--epsilon 10]
//                        [--dim 100] [--top-percent 5] [--seed 7]
#include <cstdio>

#include "core/publisher.hpp"
#include "graph/generators.hpp"
#include "ranking/centrality.hpp"
#include "ranking/metrics.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("nodes", 2000));
  const auto attach = static_cast<std::size_t>(args.get_int("attach", 5));
  const double epsilon = args.get_double("epsilon", 10.0);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 100));
  const auto top_pct = args.get_double("top-percent", 5.0);
  const auto seed = args.get_uint64("seed", 7);

  // Hub-dominated graph: preferential attachment grows celebrity accounts.
  sgp::random::Rng rng(seed);
  const auto graph = sgp::graph::barabasi_albert(n, attach, rng);
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) * top_pct / 100.0));
  std::printf("graph: %zu nodes, %zu edges; shortlisting top %zu (%.1f%%)\n",
              graph.num_nodes(), graph.num_edges(), k, top_pct);

  // Provider-side ground truth.
  const auto true_degree = sgp::ranking::degree_centrality(graph);
  const auto true_eigen = sgp::ranking::eigenvector_centrality(graph);
  const auto true_pagerank = sgp::ranking::pagerank(graph);

  // Analyst-side: rankings recovered from the DP release alone.
  sgp::core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = std::min(dim, n);
  opt.params = {epsilon, 1e-6};
  opt.seed = seed;
  const auto published =
      sgp::core::RandomProjectionPublisher(opt).publish(graph);
  const auto est_degree = sgp::core::degree_scores(published);
  const auto est_eigen = sgp::core::centrality_scores(published);

  sgp::util::TextTable table(
      {"truth_metric", "estimator", "topk_overlap", "kendall_tau",
       "spearman_rho"});
  auto report = [&](const char* truth_name, const std::vector<double>& truth,
                    const char* est_name, const std::vector<double>& est) {
    table.new_row()
        .add(std::string(truth_name))
        .add(std::string(est_name))
        .add(sgp::ranking::top_k_overlap(truth, est, k), 3)
        .add(sgp::ranking::kendall_tau(truth, est), 3)
        .add(sgp::ranking::spearman_rho(truth, est), 3);
  };
  report("degree", true_degree, "row-norm estimate", est_degree);
  report("eigenvector", true_eigen, "top singular vector", est_eigen);
  report("pagerank", true_pagerank, "row-norm estimate", est_degree);
  std::printf("%s", table.to_string().c_str());

  // Show the actual shortlist intersection for the degree ranking.
  const auto true_order = sgp::ranking::ranking_from_scores(true_degree);
  const auto est_order = sgp::ranking::ranking_from_scores(est_degree);
  std::printf("\ntop-10 by true degree:      ");
  for (int i = 0; i < 10; ++i) std::printf("%zu ", true_order[i]);
  std::printf("\ntop-10 from the DP release: ");
  for (int i = 0; i < 10; ++i) std::printf("%zu ", est_order[i]);
  std::printf("\n");
  return 0;
}
