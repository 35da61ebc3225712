// End-to-end integration tests: full provider → artifact → analyst
// pipelines crossing every module boundary, exactly as the tools drive them.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cluster/louvain.hpp"
#include "cluster/metrics.hpp"
#include "core/reconstruction.hpp"
#include "core/serialization.hpp"
#include "core/session.hpp"
#include "core/stats_publisher.hpp"
#include "core/surrogate.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"
#include "ranking/centrality.hpp"
#include "ranking/metrics.hpp"

namespace sgp {
namespace {

// Strong-signal planted graph: community eigenvalues (~73) sit well above
// the noise spectral norm at the ε used below, so utility assertions test
// the pipeline rather than the utility transition itself.
graph::PlantedGraph strong_sbm(std::uint64_t seed) {
  random::Rng rng(seed);
  return graph::stochastic_block_model({150, 150, 150}, 0.5, 0.01, rng);
}

TEST(EndToEndTest, ProviderToAnalystRoundTripThroughFiles) {
  // Provider: synthesize graph, write edge list, publish, write release.
  const auto planted = strong_sbm(11);
  const std::string edges_path = testing::TempDir() + "/e2e_edges.txt";
  const std::string release_path = testing::TempDir() + "/e2e_release.bin";
  graph::write_edge_list_file(planted.graph, edges_path);

  // kPreserve keeps node identity, so the planted labels stay aligned.
  const auto reloaded_graph =
      graph::read_edge_list_file(edges_path, graph::IdPolicy::kPreserve);
  ASSERT_EQ(reloaded_graph.num_nodes(), planted.graph.num_nodes());
  ASSERT_EQ(reloaded_graph.num_edges(), planted.graph.num_edges());

  core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = 64;
  opt.params = {8.0, 1e-6};
  opt.seed = 99;
  const auto release =
      core::RandomProjectionPublisher(opt).publish(reloaded_graph);
  core::save_published_file(release, release_path);

  // Analyst: load release, cluster — never touching the graph.
  const auto loaded = core::load_published_file(release_path);
  const auto clusters = core::cluster_published(loaded, 3, 5);
  const double nmi = cluster::normalized_mutual_information(
      clusters.assignments, planted.labels);
  EXPECT_GT(nmi, 0.8) << "clustering utility lost across the file boundary";

  std::remove(edges_path.c_str());
  std::remove(release_path.c_str());
}

TEST(EndToEndTest, RankingSurvivesFileBoundaryOnHubGraph) {
  random::Rng rng(43);
  const auto g = graph::barabasi_albert(1500, 5, rng);
  const std::string release_path = testing::TempDir() + "/e2e_rank.bin";
  core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = 100;
  // σ ≈ 0.81: at m = 100 the pair sensitivity needs ε = 13 for the noise
  // that ε = 10 bought under the old one-row bound (σ ≈ 0.79), which these
  // floors were set against.
  opt.params = {13.0, 1e-6};
  core::save_published_file(core::RandomProjectionPublisher(opt).publish(g),
                            release_path);
  const auto loaded = core::load_published_file(release_path);
  const auto truth = ranking::degree_centrality(g);
  const auto estimated = core::degree_scores(loaded);
  EXPECT_GT(ranking::spearman_rho(truth, estimated), 0.3);
  EXPECT_GT(ranking::top_k_overlap(truth, estimated, 75), 0.3);
  std::remove(release_path.c_str());
}

TEST(EndToEndTest, StreamingAndInMemoryReleasesAnalyzeIdentically) {
  const auto dataset = graph::facebook_sim_small(13);
  core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = 48;
  opt.params = {6.0, 1e-6};
  opt.seed = 7;

  std::stringstream streamed;
  core::publish_to_stream(dataset.planted.graph, opt, streamed);
  const auto from_stream = core::load_published(streamed);
  const auto direct =
      core::RandomProjectionPublisher(opt).publish(dataset.planted.graph);

  const auto c1 = core::cluster_published(from_stream, 8, 3);
  const auto c2 = core::cluster_published(direct, 8, 3);
  EXPECT_EQ(c1.assignments, c2.assignments);
}

TEST(EndToEndTest, SessionReleasesRemainIndividuallyUseful) {
  core::PublishingSession::Options opt;
  opt.publisher.projection_dim = 64;
  opt.publisher.params = {8.0, 1e-7};
  opt.publisher.seed = 21;
  opt.total_budget = {32.0, 1e-5};
  core::PublishingSession session(opt);

  const auto planted = strong_sbm(17);
  for (int release_idx = 0; release_idx < 3; ++release_idx) {
    const auto release = session.publish(planted.graph);
    const auto clusters = core::cluster_published(release, 3, 3);
    EXPECT_GT(cluster::normalized_mutual_information(clusters.assignments,
                                                     planted.labels),
              0.7)
        << "release " << release_idx;
  }
  EXPECT_EQ(session.num_releases(), 3u);
  EXPECT_LE(session.spent().epsilon, 32.0);
}

TEST(EndToEndTest, SurrogateGraphFeedsGraphNativeTools) {
  // Release → surrogate graph → Louvain + graph metrics, all analyst-side.
  random::Rng rng(23);
  const auto planted = graph::stochastic_block_model({80, 80}, 0.5, 0.02, rng);
  core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = 60;
  opt.params = {30.0, 1e-6};
  const auto release =
      core::RandomProjectionPublisher(opt).publish(planted.graph);

  core::SurrogateOptions sopt;
  sopt.rank = 2;
  const auto surrogate = core::sample_surrogate_graph(release, sopt);
  const auto louvain = cluster::louvain_cluster(surrogate);
  EXPECT_GT(cluster::normalized_mutual_information(louvain.assignments,
                                                   planted.labels),
            0.6);
  EXPECT_GT(graph::modularity(surrogate, louvain.assignments), 0.2);
}

TEST(EndToEndTest, CompanionStatsComposeWithMatrixRelease) {
  const auto dataset = graph::facebook_sim_small(29);
  const auto& g = dataset.planted.graph;
  random::Rng rng(31);

  dp::PrivacyAccountant accountant;
  // Matrix release.
  core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = 32;
  opt.params = {2.0, 1e-6};
  (void)core::RandomProjectionPublisher(opt).publish(g);
  accountant.record(opt.params);
  // Companion stats.
  const auto edges = core::dp_edge_count(g, 0.5, rng);
  accountant.record({0.5, 0.0});
  const auto hist = core::dp_degree_histogram(g, 0.5, 60, rng);
  accountant.record({0.5, 0.0});

  EXPECT_NEAR(edges.value, static_cast<double>(g.num_edges()),
              30.0);  // Laplace(2) tail
  EXPECT_EQ(hist.size(), 61u);
  const auto total = accountant.basic_composition();
  EXPECT_NEAR(total.epsilon, 3.0, 1e-12);
  EXPECT_NEAR(total.delta, 1e-6, 1e-15);
}

TEST(EndToEndTest, EdgeProbingNeedsTheProjectionSeed) {
  // Sanity: with the right seed edge scores separate; with a wrong seed the
  // regenerated projection is useless (scores carry no signal).
  random::Rng rng(37);
  const auto g = graph::erdos_renyi(200, 0.1, rng);
  core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = 96;
  opt.params = {50.0, 1e-6};
  opt.seed = 41;
  const auto pub = core::RandomProjectionPublisher(opt).publish(g);

  const auto right = core::regenerate_projection(pub, 41);
  const auto wrong = core::regenerate_projection(pub, 42);
  double right_gap = 0, wrong_gap = 0;
  int pairs = 0;
  for (const auto& e : g.edges()) {
    right_gap += core::edge_score(pub, right, e.u, e.v);
    wrong_gap += core::edge_score(pub, wrong, e.u, e.v);
    if (++pairs == 200) break;
  }
  right_gap /= pairs;
  wrong_gap /= pairs;
  EXPECT_GT(right_gap, 0.5);
  EXPECT_NEAR(wrong_gap, 0.0, 0.2);
}

}  // namespace
}  // namespace sgp
