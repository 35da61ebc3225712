// publish_rows, the one row computation under every publish mode, against
// the per-row pull loop it replaced (tests/core/reference_publish.hpp).
// In-memory, streaming and sharded publishes, and compute_shard_tile on
// pools of several sizes, must equal the oracle bit for bit on graphs with
// an isolated node, a node adjacent to every other and a ragged last shard,
// for several m, both projections, and the scalar and best polynomial
// normal kernels. Also pinned: the transpose, and that a shard draws only
// the rows of P it touches.
#include "core/publisher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/serialization.hpp"
#include "core/sharded_publish.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "random/kernel_variant.hpp"
#include "random/rng.hpp"
#include "reference_publish.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {
namespace {

enum class Shape { kIsolated, kUniversal };

/// n = 103 with nodes 0, 50 and 102 isolated, or n = 101 with node 37
/// adjacent to every other node; both over a sparse random graph, and both
/// leave a ragged last shard for 7-row shards.
graph::Graph fixture(Shape shape) {
  random::Rng rng(shape == Shape::kIsolated ? 91 : 92);
  const std::size_t n = shape == Shape::kIsolated ? 103 : 101;
  std::vector<graph::Edge> edges;
  for (const graph::Edge& e : graph::erdos_renyi(n, 0.06, rng).edges()) {
    const auto isolated = [](std::uint32_t u) {
      return u == 0 || u == 50 || u == 102;
    };
    if (shape == Shape::kIsolated && (isolated(e.u) || isolated(e.v))) {
      continue;
    }
    if (shape == Shape::kUniversal && (e.u == 37 || e.v == 37)) continue;
    edges.push_back(e);
  }
  if (shape == Shape::kUniversal) {
    for (std::uint32_t u = 0; u < n; ++u) {
      if (u != 37) edges.push_back({std::min(u, 37u), std::max(u, 37u)});
    }
  }
  return graph::Graph::from_edges(n, edges);
}

/// ShardRows of rows [r0, r1) taken straight from `g`.
graph::ShardRows shard_of(const graph::Graph& g, std::size_t r0,
                          std::size_t r1) {
  graph::ShardRows shard;
  shard.row_begin = r0;
  shard.row_end = r1;
  shard.offsets.push_back(0);
  for (std::size_t i = r0; i < r1; ++i) {
    const auto nbrs = g.neighbors(i);
    shard.adjacency.insert(shard.adjacency.end(), nbrs.begin(), nbrs.end());
    shard.offsets.push_back(shard.adjacency.size());
  }
  return shard;
}

using Params =
    std::tuple<Shape, std::size_t, ProjectionKind, random::KernelVariant>;

class PublishRowsDifferential : public testing::TestWithParam<Params> {
 protected:
  void SetUp() override {
    const auto [shape, m, projection, kernel] = GetParam();
    graph_ = fixture(shape);
    options_.projection_dim = m;
    options_.seed = 2718;
    options_.projection = projection;
    options_.kernel = kernel;
    calibration_ = calibrate_noise(m, options_.params,
                                   options_.analytic_calibration,
                                   options_.delta_split);
    std::string name =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    const std::string stem = testing::TempDir() + "/sgp_publish_rows_" + name;
    edges_path_ = stem + ".edges";
    out_path_ = stem + ".bin";
  }
  void TearDown() override {
    std::remove(edges_path_.c_str());
    std::remove(out_path_.c_str());
    std::remove((out_path_ + ".ckpt").c_str());
  }

  std::vector<double> oracle(std::size_t r0, std::size_t r1) const {
    return reference::pull_rows(
        [this](std::size_t i) { return graph_.neighbors(i); }, r0, r1,
        options_, calibration_);
  }

  graph::Graph graph_;
  RandomProjectionPublisher::Options options_;
  NoiseCalibration calibration_;
  std::string edges_path_;
  std::string out_path_;
};

TEST_P(PublishRowsDifferential, EveryModeMatchesThePullOracle) {
  const std::string expected = reference::release_bytes(graph_, options_);

  std::ostringstream in_memory(std::ios::binary);
  save_published(RandomProjectionPublisher(options_).publish(graph_),
                 in_memory);
  EXPECT_EQ(in_memory.str(), expected) << "in memory";

  std::ostringstream streamed(std::ios::binary);
  publish_to_stream(graph_, options_, streamed);
  EXPECT_EQ(streamed.str(), expected) << "publish_to_stream";

  graph::write_edge_list_file(graph_, edges_path_);
  const graph::EdgeListShardReader reader(edges_path_,
                                          graph::IdPolicy::kPreserve);
  ASSERT_EQ(reader.num_nodes(), graph_.num_nodes());
  for (std::size_t shard_rows : {std::size_t{1}, std::size_t{7},
                                 graph_.num_nodes()}) {
    ShardedPublishOptions sopt;
    sopt.publish = options_;
    sopt.shard_rows = shard_rows;
    sopt.threads = 2;
    sopt.resume = false;
    publish_sharded(reader, sopt, out_path_);
    std::ifstream in(out_path_, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), expected) << "publish_sharded, " << shard_rows
                                     << "-row shards";
  }
}

TEST_P(PublishRowsDifferential, ShardTilesMatchTheOracleOnEveryPool) {
  const std::size_t n = graph_.num_nodes();
  const ShardPlan plan = plan_shards(n, 7);
  std::vector<double> tile;
  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    for (std::size_t s = 0; s < plan.num_shards(); ++s) {
      const auto [r0, r1] = plan.shard_range(s);
      compute_shard_tile(shard_of(graph_, r0, r1), r0, r1, options_,
                         calibration_, pool, tile);
      ASSERT_EQ(tile, oracle(r0, r1))
          << "shard " << s << " on " << threads << " threads";
    }
    // An empty row range publishes nothing, wherever it sits.
    for (std::size_t at : {std::size_t{0}, n / 2, n}) {
      compute_shard_tile(shard_of(graph_, at, at), at, at, options_,
                         calibration_, pool, tile);
      EXPECT_TRUE(tile.empty()) << "empty range at " << at;
    }
  }
}

std::string param_name(const testing::TestParamInfo<Params>& info) {
  const auto [shape, m, projection, kernel] = info.param;
  return std::string(shape == Shape::kIsolated ? "isolated" : "universal") +
         "_m" + std::to_string(m) + "_" + to_string(projection) + "_" +
         std::string(random::to_string(kernel));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PublishRowsDifferential,
    testing::Combine(
        testing::Values(Shape::kIsolated, Shape::kUniversal),
        testing::Values<std::size_t>(1, 7, 8, 13, 100),
        testing::Values(ProjectionKind::kGaussian, ProjectionKind::kAchlioptas),
        testing::Values(random::KernelVariant::kScalar,
                        random::best_polynomial_kernel())),
    param_name);

TEST(TransposeRowsTest, GroupsRowsBySourceAscending) {
  // Rows 10..13 of a graph: row 10 → {2, 5}, 11 → {}, 12 → {5}, 13 → {0, 2, 5}.
  const std::vector<std::vector<std::uint32_t>> lists = {
      {2, 5}, {}, {5}, {0, 2, 5}};
  const RowsBySource t = transpose_rows(10, 14, [&](std::size_t i) {
    return std::span<const std::uint32_t>(lists[i - 10]);
  });
  EXPECT_EQ(t.num_rows, 4u);
  EXPECT_EQ(t.offsets, (std::vector<std::size_t>{0, 1, 1, 3, 3, 3, 6}));
  EXPECT_EQ(t.rows, (std::vector<std::uint32_t>{3, 0, 3, 0, 2, 3}));

  const RowsBySource empty = transpose_rows(7, 7, [](std::size_t) {
    return std::span<const std::uint32_t>();
  });
  EXPECT_EQ(empty.num_rows, 0u);
  EXPECT_EQ(empty.offsets, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(empty.rows.empty());
}

TEST(PublishRowsTest, OneRowShardDrawsExactlyItsDegreeInRowsOfP) {
  // Row 4 of a 40-node graph, adjacent to d = 5 nodes: the push kernel asks
  // the filler for exactly those 5 rows of P, once each per column block,
  // where a whole-graph index would ask for all 40.
  const std::vector<std::uint32_t> nbrs = {1, 2, 17, 30, 39};
  const RowsBySource index = transpose_rows(4, 5, [&](std::size_t) {
    return std::span<const std::uint32_t>(nbrs);
  });
  const std::size_t m = 9;
  std::mutex mu;
  std::vector<std::size_t> requested;
  const linalg::TileFiller counting = [&](std::size_t r0, std::size_t r1,
                                          std::size_t c0, std::size_t c1,
                                          double* out) {
    std::fill(out, out + (r1 - r0) * (c1 - c0), 1.0);
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t j = r0; j < r1; ++j) requested.push_back(j);
  };
  linalg::GeneratedTileOptions opts;
  opts.tile_cols = m;  // one column block
  std::vector<double> out(m, 0.0);
  linalg::multiply_generated_into(index.view(), m, counting, opts, out);
  std::sort(requested.begin(), requested.end());
  EXPECT_EQ(requested, (std::vector<std::size_t>{1, 2, 17, 30, 39}));
  EXPECT_EQ(out, std::vector<double>(m, 5.0));
}

}  // namespace
}  // namespace sgp::core
