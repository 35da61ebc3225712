// EdgeListShardReader: shard rows must agree with the in-memory reader on
// the same file — same node count, same per-row neighbor lists — under both
// id policies, including the messy inputs read_edge_list tolerates
// (comments, duplicates, self loops, both orientations).
#include "graph/shard_loader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "random/rng.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"

namespace sgp::graph {
namespace {

class ShardLoaderTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/sgp_shard_loader_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".edges";
  }
  void TearDown() override {
    util::disarm_all_faults();
    std::remove(path_.c_str());
  }

  void write(const std::string& content) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }

  /// Every shard row must equal the in-memory graph's neighbor list.
  void expect_shards_match(const Graph& g, IdPolicy policy,
                           std::size_t shard_rows) const {
    const EdgeListShardReader reader(path_, policy);
    ASSERT_EQ(reader.num_nodes(), g.num_nodes());
    for (std::size_t r0 = 0; r0 < g.num_nodes(); r0 += shard_rows) {
      const std::size_t r1 = std::min(g.num_nodes(), r0 + shard_rows);
      const ShardRows shard = reader.load_shard(r0, r1);
      EXPECT_EQ(shard.num_rows(), r1 - r0);
      for (std::size_t u = r0; u < r1; ++u) {
        const auto got = shard.neighbors(u);
        const auto want = g.neighbors(u);
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                  std::vector<std::uint32_t>(want.begin(), want.end()))
            << "row " << u << " shard_rows " << shard_rows;
      }
    }
  }

  std::string path_;
};

TEST_F(ShardLoaderTest, MessyInputMatchesReadEdgeListUnderCompact) {
  // Duplicates (both orientations), a self loop, comments, sparse ids.
  write("# comment\n5 9\n9 5\n5 12\n3 3\n12 9\n\n9 40\n");
  std::ifstream in(path_);
  const Graph g = read_edge_list(in, IdPolicy::kCompact);
  for (const std::size_t shard_rows : {1, 2, 100}) {
    expect_shards_match(g, IdPolicy::kCompact, shard_rows);
  }
}

TEST_F(ShardLoaderTest, PreservePolicyKeepsIdsAndHeaderNodes) {
  write("# sgp edge list: 9 nodes, 2 edges\n0 4\n4 6\n");
  std::ifstream in(path_);
  const Graph g = read_edge_list(in, IdPolicy::kPreserve);
  ASSERT_EQ(g.num_nodes(), 9u);  // header wins over max id + 1
  for (const std::size_t shard_rows : {1, 3, 9, 50}) {
    expect_shards_match(g, IdPolicy::kPreserve, shard_rows);
  }
}

TEST_F(ShardLoaderTest, GeneratedGraphRoundTripsThroughShards) {
  random::Rng rng(7);
  const Graph g = erdos_renyi(64, 0.1, rng);
  write_edge_list_file(g, path_);
  for (const std::size_t shard_rows : {1, 7, 64}) {
    expect_shards_match(g, IdPolicy::kPreserve, shard_rows);
  }
}

TEST_F(ShardLoaderTest, EmptyFileHasNoNodes) {
  write("# nothing but comments\n");
  const EdgeListShardReader reader(path_);
  EXPECT_EQ(reader.num_nodes(), 0u);
  EXPECT_EQ(reader.edge_records(), 0u);
  const ShardRows shard = reader.load_shard(0, 0);
  EXPECT_EQ(shard.num_rows(), 0u);
}

TEST_F(ShardLoaderTest, RejectsOutOfRangeShard) {
  write("0 1\n");
  const EdgeListShardReader reader(path_);
  EXPECT_THROW((void)reader.load_shard(0, 3), util::PreconditionError);
  EXPECT_THROW((void)reader.load_shard(2, 1), util::PreconditionError);
}

TEST_F(ShardLoaderTest, MissingFileThrowsIoError) {
  EXPECT_THROW((void)EdgeListShardReader(path_ + ".nope"), util::IoError);
}

TEST_F(ShardLoaderTest, DetectsFileChangedBetweenScanAndLoad) {
  write("0 1\n1 2\n");
  const EdgeListShardReader reader(path_);
  write("0 1\n1 2\n2 3\n");  // grew behind the reader's back
  EXPECT_THROW((void)reader.load_shard(0, 1), util::IoError);
}

TEST_F(ShardLoaderTest, MalformedLinesStillRejected) {
  write("0 1 junk\n");
  EXPECT_THROW((void)EdgeListShardReader(path_), util::ParseError);
}

TEST_F(ShardLoaderTest, SignedIdsRejectedUnderBothPolicies) {
  for (const char* content : {"-1 2\n", "1 -2\n", "1+2\n", "0 1\n+3 4\n"}) {
    write(content);
    for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
      EXPECT_THROW((void)EdgeListShardReader(path_, policy), util::ParseError)
          << content;
    }
  }
}

TEST_F(ShardLoaderTest, PreservePolicyDefaultCapRejectsSixteenGibGraphs) {
  for (const char* content :
       {"2147483648 0\n", "# sgp edge list: 2147483648 nodes, 1 edges\n0 1\n"}) {
    write(content);
    EXPECT_THROW((void)EdgeListShardReader(path_, IdPolicy::kPreserve),
                 util::ParseError)
        << content;
  }
}

TEST_F(ShardLoaderTest, ShardReadFaultPointFires) {
  write("0 1\n");
  const EdgeListShardReader reader(path_);
  util::arm_fault("io.shard.read");
  EXPECT_THROW((void)reader.load_shard(0, 1), util::IoError);
}

}  // namespace
}  // namespace sgp::graph
