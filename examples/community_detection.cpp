// Community detection on a privately published graph, compared against the
// non-private spectral pipeline and across privacy budgets.
//
// Scenario (the paper's motivating one): a social network provider wants
// researchers to study community structure without seeing real friendships.
//
//   ./community_detection [--dataset facebook|pokec|livejournal]
//                         [--small] [--dim 100] [--seed 7]
//   ./community_detection --edges my_graph.txt --clusters 8
#include <cstdio>
#include <string>

#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "core/publisher.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

sgp::graph::Dataset pick_dataset(const std::string& name, bool small) {
  if (name == "pokec") {
    return small ? sgp::graph::pokec_sim_small() : sgp::graph::pokec_sim();
  }
  if (name == "livejournal") {
    return small ? sgp::graph::livejournal_sim_small()
                 : sgp::graph::livejournal_sim();
  }
  return small ? sgp::graph::facebook_sim_small() : sgp::graph::facebook_sim();
}

}  // namespace

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 100));
  const auto seed = args.get_uint64("seed", 7);

  sgp::graph::Dataset dataset;
  if (args.has("edges")) {
    dataset.name = args.get_string("edges", "");
    dataset.planted.graph =
        sgp::graph::read_edge_list_file(args.get_string("edges", ""));
    dataset.num_communities =
        static_cast<std::size_t>(args.get_int("clusters", 8));
  } else {
    dataset = pick_dataset(args.get_string("dataset", "facebook"),
                           args.get_bool("small", true));
  }
  const auto& graph = dataset.planted.graph;
  const std::size_t k = dataset.num_communities;
  const bool have_truth = !dataset.planted.labels.empty();
  std::printf("dataset %s: %zu nodes, %zu edges, %zu communities\n",
              dataset.name.c_str(), graph.num_nodes(), graph.num_edges(), k);

  // Non-private reference: spectral clustering on the original graph.
  sgp::cluster::SpectralOptions ref_opt;
  ref_opt.num_clusters = k;
  ref_opt.seed = seed;
  const auto reference = sgp::cluster::spectral_cluster_graph(graph, ref_opt);
  if (have_truth) {
    std::printf("non-private spectral clustering NMI = %.3f\n\n",
                sgp::cluster::normalized_mutual_information(
                    reference.assignments, dataset.planted.labels));
  }

  sgp::util::TextTable table({"epsilon", "sigma", "nmi_vs_truth",
                              "nmi_vs_nonprivate"});
  for (double epsilon : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    sgp::core::RandomProjectionPublisher::Options opt;
    opt.projection_dim = std::min(dim, graph.num_nodes());
    opt.params = {epsilon, 1e-6};
    opt.seed = seed;
    const auto published =
        sgp::core::RandomProjectionPublisher(opt).publish(graph);
    const auto clusters = sgp::core::cluster_published(published, k, seed);
    table.new_row()
        .add(epsilon, 2)
        .add(published.calibration.sigma, 3)
        .add(have_truth ? sgp::cluster::normalized_mutual_information(
                              clusters.assignments, dataset.planted.labels)
                        : 0.0,
             3)
        .add(sgp::cluster::normalized_mutual_information(
                 clusters.assignments, reference.assignments),
             3);
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nReading the table: published-graph clustering approaches the\n"
      "non-private pipeline as epsilon grows; privacy is free storage-wise\n"
      "(the release is %zu x %zu instead of %zu x %zu).\n",
      graph.num_nodes(), dim, graph.num_nodes(), graph.num_nodes());
  return 0;
}
