// sgp_generate — synthesize benchmark graphs as edge lists, so the whole
// tool pipeline (generate → publish → analyze/stats) runs without any
// external data.
//
//   sgp_generate --model sbm --communities 8 --size 500 --p-in 0.2
//                --p-out 0.004 --out graph.txt [--seed 7]
//   sgp_generate --model ba --nodes 4000 --attach 22 --out graph.txt
//   sgp_generate --model er --nodes 1000 --p 0.01 --out graph.txt
//   sgp_generate --model ws --nodes 1000 --k 10 --beta 0.1 --out graph.txt
//
// For --model sbm the planted community labels are written next to the
// edge list as <out>.labels (one "node community" pair per line).
//
// Shares the observability flags of all sgp_* tools:
// [--metrics-out metrics.json [--metrics-format prometheus]] [--trace]
// A flag the chosen model does not read is a usage error (exit 2).
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"

namespace {

void write_labels(const std::vector<std::uint32_t>& labels,
                  const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    throw sgp::util::IoError("cannot open " + path);
  }
  out << "# node community\n";
  for (std::size_t u = 0; u < labels.size(); ++u) {
    out << u << ' ' << labels[u] << '\n';
  }
  out.flush();
  if (!out.good()) {
    throw sgp::util::IoError("failed writing labels to " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const std::string model = args.get_string("model", "");
  const std::string out_path = args.get_string("out", "graph.txt");
  if (model.empty()) {
    std::fprintf(stderr,
                 "usage: %s --model sbm|ba|er|ws --out graph.txt [model "
                 "params; see header comment] "
                 "[--metrics-out metrics.json] [--trace]\n",
                 args.program().c_str());
    return sgp::tools::kExitUsage;
  }

  return sgp::tools::run_tool([&]() -> int {
    const sgp::tools::ObsScope obs_scope(args, "sgp_generate");
    sgp::random::Rng rng(args.get_uint64("seed", 7));
    // Each model reads only its own flags, so a flag of another model (or
    // a typo) is left unread and refused before anything is generated.
    std::function<sgp::graph::PlantedGraph()> generate;
    if (model == "sbm") {
      const auto communities =
          static_cast<std::size_t>(args.get_uint64("communities", 8));
      const auto size = static_cast<std::size_t>(args.get_uint64("size", 500));
      const double p_in = args.get_double("p-in", 0.2);
      const double p_out = args.get_double("p-out", 0.004);
      generate = [=, &rng] {
        return sgp::graph::stochastic_block_model(
            std::vector<std::size_t>(communities, size), p_in, p_out, rng);
      };
    } else if (model == "ba") {
      const auto nodes =
          static_cast<std::size_t>(args.get_uint64("nodes", 4000));
      const auto attach =
          static_cast<std::size_t>(args.get_uint64("attach", 5));
      generate = [=, &rng] {
        return sgp::graph::PlantedGraph{
            sgp::graph::barabasi_albert(nodes, attach, rng), {}};
      };
    } else if (model == "er") {
      const auto nodes =
          static_cast<std::size_t>(args.get_uint64("nodes", 1000));
      const double p = args.get_double("p", 0.01);
      generate = [=, &rng] {
        return sgp::graph::PlantedGraph{
            sgp::graph::erdos_renyi(nodes, p, rng), {}};
      };
    } else if (model == "ws") {
      const auto nodes =
          static_cast<std::size_t>(args.get_uint64("nodes", 1000));
      const auto k = static_cast<std::size_t>(args.get_uint64("k", 10));
      const double beta = args.get_double("beta", 0.1);
      generate = [=, &rng] {
        return sgp::graph::PlantedGraph{
            sgp::graph::watts_strogatz(nodes, k, beta, rng), {}};
      };
    } else {
      std::fprintf(stderr, "error: unknown model '%s'\n", model.c_str());
      return sgp::tools::kExitUsage;
    }
    args.reject_unread();

    sgp::obs::ScopedTimer generate_timer(sgp::obs::names::kToolGenerate);
    generate_timer.attr("model", model);
    const sgp::graph::PlantedGraph planted = generate();
    const sgp::graph::Graph& graph = planted.graph;
    if (model == "sbm") write_labels(planted.labels, out_path + ".labels");
    sgp::graph::write_edge_list_file(graph, out_path);
    const auto stats = sgp::graph::degree_stats(graph);
    std::fprintf(stderr,
                 "wrote %s: %zu nodes, %zu edges, avg deg %.1f, max deg %zu\n",
                 out_path.c_str(), graph.num_nodes(), graph.num_edges(),
                 stats.mean, stats.max);
    return sgp::tools::kExitOk;
  });
}
