// EdgeListShardReader: shard rows must agree with the in-memory reader on
// the same file — same node count, same per-row neighbor lists — under both
// id policies, including the messy inputs read_edge_list tolerates
// (comments, duplicates, self loops, both orientations). The file is also
// cut into ranges at every byte offset of the small corpora, and at planned
// and forced cuts of the generated megabytes, and loaded on pools of 1, 2, 3
// and 8 threads: every shard must hold the one-pass reference's rows.
#include "graph/shard_loader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "edge_list_corpora.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "random/rng.hpp"
#include "reference_edge_scanner.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

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

// --- Cut into ranges (graph/edge_ranges.hpp) --------------------------------

constexpr std::size_t kPoolSizes[] = {1, 2, 3, 8};

using Cuts = std::optional<std::vector<std::uint64_t>>;

/// `text` in a file of this test process.
std::string edges_file(const std::string& text) {
  const std::string path = testing::TempDir() + "/sgp_shard_cuts_" +
                           std::to_string(::getpid()) + ".edges";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  return path;
}

/// The one-pass reference read of `text`, or nothing when the scanner
/// rejects it (the scanner differential test covers rejections).
std::optional<reference::Read> reference_read(const std::string& text,
                                              IdPolicy policy) {
  try {
    std::istringstream scanned(text);
    (void)scan_edge_list(scanned, policy, kDefaultMaxPreservedNodeId,
                         [](std::uint64_t, std::uint64_t) {});
  } catch (const util::ParseError&) {
    return std::nullopt;
  }
  std::istringstream in(text);
  return reference::read_edge_list(in, policy, kDefaultMaxPreservedNodeId);
}

/// Every shard of `shard_rows` rows `reader` loads on `pool` holds `want`'s
/// rows.
void expect_reference_rows(const EdgeListShardReader& reader,
                           const Graph& want, std::size_t shard_rows,
                           util::ThreadPool& pool) {
  ASSERT_EQ(reader.num_nodes(), want.num_nodes());
  std::size_t r0 = 0;
  do {
    const std::size_t r1 = std::min(want.num_nodes(), r0 + shard_rows);
    const ShardRows shard = reader.load_shard(r0, r1, pool);
    ASSERT_EQ(shard.num_rows(), r1 - r0);
    for (std::size_t u = r0; u < r1; ++u) {
      const auto got = shard.neighbors(u);
      const auto expected = want.neighbors(u);
      ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                std::vector<std::uint32_t>(expected.begin(), expected.end()))
          << "row " << u << " shard_rows " << shard_rows;
    }
    r0 = r1;
  } while (r0 < want.num_nodes());
}

class ShardRangeCuts : public testing::TestWithParam<std::string> {};

TEST_P(ShardRangeCuts, EveryCutOnEveryPoolLoadsTheReferenceRows) {
  const std::string& text = GetParam();
  const std::string path = edges_file(text);
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    SCOPED_TRACE(policy == IdPolicy::kCompact ? "kCompact" : "kPreserve");
    const std::optional<reference::Read> want = reference_read(text, policy);
    if (!want) continue;
    for (const std::size_t threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("pool of " + std::to_string(threads));
      for (std::uint64_t cut = 0; cut <= text.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        const EdgeListShardReader reader = detail::make_shard_reader(
            path, policy, kDefaultMaxPreservedNodeId, pool, Cuts{{cut}});
        for (const std::size_t shard_rows : {std::size_t{1}, std::size_t{3}}) {
          expect_reference_rows(reader, want->graph, shard_rows, pool);
        }
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Garbage, ShardRangeCuts,
                         testing::ValuesIn(corpora::garbage_edge_lists()));
INSTANTIATE_TEST_SUITE_P(HostileInputs, ShardRangeCuts,
                         testing::ValuesIn(corpora::hostile_edge_lists()));

TEST(ShardRangeCuts, GeneratedMegabytesLoadTheReferenceRows) {
  const std::string text = corpora::generated_edge_list(20261017);
  const std::string path = edges_file(text);
  std::vector<std::uint64_t> even;
  for (std::uint64_t r = 1; r < 8; ++r) even.push_back(text.size() * r / 8);
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    SCOPED_TRACE(policy == IdPolicy::kCompact ? "kCompact" : "kPreserve");
    const std::optional<reference::Read> want = reference_read(text, policy);
    ASSERT_TRUE(want.has_value());
    const std::size_t shard_rows = want->graph.num_nodes() / 3 + 1;
    for (const std::size_t threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("pool of " + std::to_string(threads));
      for (const Cuts& cuts : {Cuts{}, Cuts{even}}) {
        const EdgeListShardReader reader = detail::make_shard_reader(
            path, policy, kDefaultMaxPreservedNodeId, pool, cuts);
        EXPECT_EQ(reader.fingerprint(), want->fingerprint);
        expect_reference_rows(reader, want->graph, shard_rows, pool);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ShardRangeCuts, AChangedFileFailsAtItsFirstBadLineWhereverTheCutFalls) {
  const std::string path = edges_file("0 1\n1 2\n");
  util::ThreadPool pool(3);
  // An unknown id on line 1 comes before a malformed line 2, and the other
  // way round; a cut anywhere must not change which is reported.
  const std::string unknown_first = "0 9\nbad\n1 2\n";
  const std::string malformed_first = "bad\n0 9\n1 2\n";
  for (std::uint64_t cut = 0; cut <= unknown_first.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << "0 1\n1 2\n";
    const EdgeListShardReader reader = detail::make_shard_reader(
        path, IdPolicy::kCompact, kDefaultMaxPreservedNodeId, pool,
        Cuts{{cut}});
    std::ofstream(path, std::ios::binary | std::ios::trunc) << unknown_first;
    EXPECT_THROW((void)reader.load_shard(0, 1, pool), util::IoError);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << malformed_first;
    EXPECT_THROW((void)reader.load_shard(0, 1, pool), util::ParseError);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgp::graph
