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
#include <cstdio>
#include <fstream>
#include <string>

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
  const sgp::tools::ObsScope obs_scope(args, "sgp_generate");

  return sgp::tools::run_tool([&]() -> int {
    sgp::obs::ScopedTimer generate_timer(sgp::obs::names::kToolGenerate);
    generate_timer.attr("model", model);
    sgp::random::Rng rng(args.get_uint64("seed", 7));
    sgp::graph::Graph graph;

    if (model == "sbm") {
      const auto communities =
          static_cast<std::size_t>(args.get_int("communities", 8));
      const auto size = static_cast<std::size_t>(args.get_int("size", 500));
      const auto planted = sgp::graph::stochastic_block_model(
          std::vector<std::size_t>(communities, size),
          args.get_double("p-in", 0.2), args.get_double("p-out", 0.004), rng);
      graph = planted.graph;
      write_labels(planted.labels, out_path + ".labels");
    } else if (model == "ba") {
      graph = sgp::graph::barabasi_albert(
          static_cast<std::size_t>(args.get_int("nodes", 4000)),
          static_cast<std::size_t>(args.get_int("attach", 5)), rng);
    } else if (model == "er") {
      graph = sgp::graph::erdos_renyi(
          static_cast<std::size_t>(args.get_int("nodes", 1000)),
          args.get_double("p", 0.01), rng);
    } else if (model == "ws") {
      graph = sgp::graph::watts_strogatz(
          static_cast<std::size_t>(args.get_int("nodes", 1000)),
          static_cast<std::size_t>(args.get_int("k", 10)),
          args.get_double("beta", 0.1), rng);
    } else {
      std::fprintf(stderr, "error: unknown model '%s'\n", model.c_str());
      return sgp::tools::kExitUsage;
    }

    sgp::graph::write_edge_list_file(graph, out_path);
    const auto stats = sgp::graph::degree_stats(graph);
    std::fprintf(stderr,
                 "wrote %s: %zu nodes, %zu edges, avg deg %.1f, max deg %zu\n",
                 out_path.c_str(), graph.num_nodes(), graph.num_edges(),
                 stats.mean, stats.max);
    return sgp::tools::kExitOk;
  });
}
