// sgp_stats — differentially private scalar/histogram statistics of a graph.
//
//   sgp_stats --edges graph.txt [--epsilon 1.0] [--max-degree 200]
//             [--degree-bound 0] [--seed 7]
//
// Splits ε evenly across the requested statistics (sequential composition;
// the exact split is printed). --degree-bound > 0 additionally releases a
// triangle count under that promised bound.
//
// Shares the observability flags of all sgp_* tools:
// [--metrics-out metrics.json [--metrics-format prometheus]] [--trace]
#include <cstdio>

#include "core/stats_publisher.hpp"
#include "dp/accountant.hpp"
#include "graph/io.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "tool_common.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const std::string edges_path = args.get_string("edges", "");
  if (edges_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --edges graph.txt [--epsilon E] [--max-degree D] "
                 "[--degree-bound B] [--seed S] "
                 "[--metrics-out metrics.json] [--trace]\n",
                 args.program().c_str());
    return sgp::tools::kExitUsage;
  }

  return sgp::tools::run_tool([&]() -> int {
    const sgp::tools::ObsScope obs_scope(args, "sgp_stats");
    const double total_eps = args.get_double("epsilon", 1.0);
    const auto max_degree =
        static_cast<std::size_t>(args.get_uint64("max-degree", 200));
    // dp_degree_histogram refuses 0 as well, but only after the edge count
    // has been released.
    sgp::util::require(max_degree >= 1, "--max-degree must be at least 1");
    const auto degree_bound =
        static_cast<std::size_t>(args.get_uint64("degree-bound", 0));
    sgp::random::Rng rng(args.get_uint64("seed", 7));
    // A misspelt or unknown flag is a usage error, not a silent default.
    args.reject_unread();

    sgp::obs::ScopedTimer stats_timer(sgp::obs::names::kToolStats);
    const auto graph = sgp::graph::read_edge_list_file(edges_path);

    const int parts = degree_bound > 0 ? 3 : 2;
    const double eps_each = total_eps / parts;
    sgp::dp::PrivacyAccountant accountant;

    const auto edges = sgp::core::dp_edge_count(graph, eps_each, rng);
    accountant.record({eps_each, 0.0});
    std::printf("edges            %.1f   (laplace scale %.2f)\n", edges.value,
                edges.laplace_scale);
    std::printf("avg degree       %.3f  (post-processed, no extra budget)\n",
                2.0 * edges.value / static_cast<double>(graph.num_nodes()));

    const auto hist =
        sgp::core::dp_degree_histogram(graph, eps_each, max_degree, rng);
    accountant.record({eps_each, 0.0});
    double mass = 0;
    std::size_t mode = 0;
    for (std::size_t d = 0; d < hist.size(); ++d) {
      mass += hist[d];
      if (hist[d] > hist[mode]) mode = d;
    }
    std::printf("degree histogram %zu bins, noisy mass %.1f, mode bin %zu\n",
                hist.size(), mass, mode);

    if (degree_bound > 0) {
      const auto triangles =
          sgp::core::dp_triangle_count(graph, eps_each, degree_bound, rng);
      accountant.record({eps_each, 0.0});
      std::printf("triangles        %.1f   (bound %zu, laplace scale %.2f)\n",
                  triangles.value, degree_bound, triangles.laplace_scale);
    }

    const auto spent = accountant.basic_composition();
    std::fprintf(stderr, "total budget consumed: %s over %zu releases\n",
                 spent.to_string().c_str(), accountant.num_releases());
    return sgp::tools::kExitOk;
  });
}
