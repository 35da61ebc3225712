// Budget-capped re-publishing of an evolving social graph.
//
// Scenario: a provider publishes a fresh DP snapshot every week while the
// graph gains edges. The session enforces a yearly privacy cap with Rényi
// accounting, refusing to publish once the cap is reached; the example
// tracks clustering utility of each snapshot against the week's ground
// truth.
//
//   ./republishing_session [--weeks 20] [--per-epsilon 4.0]
//                          [--total-epsilon 24] [--seed 7]
#include <cstdio>
#include <stdexcept>

#include "cluster/metrics.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const auto weeks = static_cast<std::size_t>(args.get_int("weeks", 20));
  const double per_eps = args.get_double("per-epsilon", 4.0);
  const double total_eps = args.get_double("total-epsilon", 24.0);
  const auto seed = args.get_uint64("seed", 7);

  sgp::core::PublishingSession::Options opt;
  opt.publisher.projection_dim = 64;
  opt.publisher.params = {per_eps, 1e-7};
  opt.publisher.seed = seed;
  opt.total_budget = {total_eps, 1e-5};
  sgp::core::PublishingSession session(opt);

  std::printf("cap: %s; per release: %s\n",
              opt.total_budget.to_string().c_str(),
              opt.publisher.params.to_string().c_str());

  sgp::util::TextTable table(
      {"week", "edges", "published", "spent_eps", "remaining_eps", "nmi"});
  for (std::size_t week = 0; week < weeks; ++week) {
    // The graph densifies over time (new friendships every week).
    sgp::random::Rng rng(seed);  // same node set, evolving density
    const double p_in = 0.45 + 0.01 * static_cast<double>(week);
    const auto snapshot =
        sgp::graph::stochastic_block_model({150, 150, 150}, p_in, 0.01, rng);

    table.new_row().add(week + 1).add(snapshot.graph.num_edges());
    try {
      const auto release = session.publish(snapshot.graph);
      const auto clusters = sgp::core::cluster_published(release, 3, seed);
      table.add(std::string("yes"))
          .add(session.spent().epsilon, 3)
          .add(session.remaining_epsilon(), 3)
          .add(sgp::cluster::normalized_mutual_information(
                   clusters.assignments, snapshot.labels),
               3);
    } catch (const std::runtime_error&) {
      table.add(std::string("REFUSED"))
          .add(session.spent().epsilon, 3)
          .add(session.remaining_epsilon(), 3)
          .add(std::string("-"));
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\n%zu releases made; the session refused further publication once the "
      "Renyi-accounted spend would exceed eps=%.1f.\n",
      session.num_releases(), total_eps);
  return 0;
}
