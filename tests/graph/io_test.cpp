#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "util/errors.hpp"

namespace sgp::graph {
namespace {

TEST(IoTest, ReadSimpleEdgeList) {
  std::istringstream in("0 1\n1 2\n");
  const auto g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(IoTest, CommentsAndBlanksIgnored) {
  std::istringstream in(
      "# SNAP-style header\n"
      "\n"
      "0 1  # trailing comment\n"
      "# another\n"
      "1 2\n");
  const auto g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(IoTest, SparseIdsRemappedDense) {
  std::istringstream in("1000000 42\n42 7\n");
  const auto g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(IoTest, SelfLoopsDropped) {
  std::istringstream in("0 0\n0 1\n");
  const auto g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(IoTest, DuplicateEdgesMerged) {
  std::istringstream in("0 1\n1 0\n0 1\n");
  const auto g = read_edge_list(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(IoTest, MalformedLineThrows) {
  std::istringstream in("0\n");
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(IoTest, TooManyFieldsThrows) {
  std::istringstream in("0 1 2\n");
  EXPECT_THROW(read_edge_list(in), std::runtime_error);
}

TEST(IoTest, SignedIdsRejectedUnderBothPolicies) {
  // operator>> used to accept a sign and wrap it: "-1" read as 2^64 - 1
  // (under kCompact the same node as 18446744073709551615) and "1+2" as
  // the edge (1, 2).
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      {"-1 2\n", "line 1: expected a numeric node id"},
      {"+1 2\n", "line 1: expected a numeric node id"},
      {"1 -2\n", "line 1: expected two node ids, got one"},
      {"1+2\n", "line 1: expected two node ids, got one"},
      {"0 1\n3 +4\n", "line 2: expected two node ids, got one"},
  };
  for (const auto& c : cases) {
    for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
      std::istringstream in(c.text);
      try {
        (void)read_edge_list(in, policy);
        ADD_FAILURE() << "accepted " << c.text;
      } catch (const util::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(IoTest, RoundTripPreservesStructure) {
  random::Rng rng(1);
  const auto original = erdos_renyi(50, 0.1, rng);
  std::stringstream buffer;
  write_edge_list(original, buffer);
  const auto loaded = read_edge_list(buffer);
  EXPECT_EQ(loaded.num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.num_edges(), original.num_edges());
}

TEST(IoTest, PreservePolicyKeepsNodeIdentity) {
  random::Rng rng(3);
  const auto original = erdos_renyi(40, 0.15, rng);
  std::stringstream buffer;
  write_edge_list(original, buffer);
  const auto loaded = read_edge_list(buffer, IdPolicy::kPreserve);
  ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.edges(), original.edges());  // exact id-level round trip
}

TEST(IoTest, PreservePolicyKeepsIsolatedNodesViaHeader) {
  // Node 5 is isolated and has the largest id: only the header knows n=6.
  const auto original =
      Graph::from_edges(6, std::vector<Edge>{{0, 1}, {2, 3}});
  std::stringstream buffer;
  write_edge_list(original, buffer);
  const auto loaded = read_edge_list(buffer, IdPolicy::kPreserve);
  EXPECT_EQ(loaded.num_nodes(), 6u);
  EXPECT_EQ(loaded.num_edges(), 2u);
  EXPECT_EQ(loaded.degree(5), 0u);
}

TEST(IoTest, PreservePolicyUsesMaxIdWithoutHeader) {
  std::istringstream in("0 7\n2 3\n");
  const auto g = read_edge_list(in, IdPolicy::kPreserve);
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_TRUE(g.has_edge(0, 7));
}

TEST(IoTest, PreservePolicyRejectsHugeIds) {
  std::istringstream in("0 4294967296\n");  // 2^32 overflows uint32 ids
  EXPECT_THROW(read_edge_list(in, IdPolicy::kPreserve), std::runtime_error);
}

TEST(IoTest, PreservePolicyDefaultCapRejectsSixteenGibGraphs) {
  // 2^31 as an id, or 2^31 declared nodes, would size 16 GiB of CSR
  // offsets; the default cap (2^26) rejects both before any allocation.
  std::istringstream id_line("2147483648 0\n");
  EXPECT_THROW(read_edge_list(id_line, IdPolicy::kPreserve), util::ParseError);
  std::istringstream header("# sgp edge list: 2147483648 nodes, 1 edges\n0 1\n");
  EXPECT_THROW(read_edge_list(header, IdPolicy::kPreserve), util::ParseError);
  EXPECT_EQ(kDefaultMaxPreservedNodeId, std::uint64_t{1} << 26);
}

TEST(IoTest, CompactPolicyStillRemapsSparseIds) {
  std::istringstream in("1000000 42\n42 7\n");
  const auto g = read_edge_list(in, IdPolicy::kCompact);
  EXPECT_EQ(g.num_nodes(), 3u);
}

TEST(IoTest, FileRoundTrip) {
  random::Rng rng(2);
  const auto original = erdos_renyi(30, 0.2, rng);
  const std::string path = testing::TempDir() + "/sgp_io_test_edges.txt";
  write_edge_list_file(original, path);
  const auto loaded = read_edge_list_file(path);
  EXPECT_EQ(loaded.num_edges(), original.num_edges());
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/missing.txt"),
               std::runtime_error);
}

TEST(IoTest, EmptyInputYieldsEmptyGraph) {
  std::istringstream in("# only comments\n");
  const auto g = read_edge_list(in);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

}  // namespace
}  // namespace sgp::graph
