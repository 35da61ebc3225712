// Failure injection: malformed inputs, corrupted artifacts, and adversarial
// parameter combinations must produce clean exceptions — never UB, hangs, or
// silent wrong results.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "../graph/edge_list_corpora.hpp"
#include "core/serialization.hpp"
#include "graph/io.hpp"
#include "linalg/lanczos.hpp"
#include "random/rng.hpp"
#include "util/errors.hpp"

namespace sgp {
namespace {

// --------------------------------------------------------------------------
// Edge-list parser vs garbage — under both id policies: whatever parses
// must be internally consistent and must never have triggered an absurd
// allocation; everything else must be rejected with a clean exception.
class EdgeListFuzz : public testing::TestWithParam<std::string> {};

TEST_P(EdgeListFuzz, ThrowsOrParsesNeverCrashes) {
  for (const auto policy :
       {graph::IdPolicy::kCompact, graph::IdPolicy::kPreserve}) {
    std::istringstream in(GetParam());
    try {
      const auto g = graph::read_edge_list(in, policy);
      // If it parsed, the result must be internally consistent.
      ASSERT_LE(g.num_nodes(), graph::kDefaultMaxPreservedNodeId + 1);
      for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        for (auto v : g.neighbors(u)) {
          ASSERT_LT(v, g.num_nodes());
          ASSERT_TRUE(g.has_edge(v, u));
        }
      }
    } catch (const std::exception&) {
      // Clean rejection is acceptable.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Garbage, EdgeListFuzz,
                         testing::ValuesIn(
                             graph::corpora::garbage_edge_lists()));

INSTANTIATE_TEST_SUITE_P(HostileInputs, EdgeListFuzz,
                         testing::ValuesIn(
                             graph::corpora::hostile_edge_lists()));

TEST(EdgeListHardeningTest, PreservePolicyRejectsAbsurdIdWithParseError) {
  std::istringstream in("3000000000 1\n");  // > 2^26 default cap
  EXPECT_THROW((void)graph::read_edge_list(in, graph::IdPolicy::kPreserve),
               util::ParseError);
}

TEST(EdgeListHardeningTest, PreservePolicyRejectsLyingHeader) {
  std::istringstream in("# sgp edge list: 99999999999 nodes, 1 edges\n0 1\n");
  EXPECT_THROW((void)graph::read_edge_list(in, graph::IdPolicy::kPreserve),
               util::ParseError);
}

TEST(EdgeListHardeningTest, PreserveCapIsConfigurable) {
  {
    std::istringstream in("5000 1\n");
    EXPECT_THROW(
        (void)graph::read_edge_list(in, graph::IdPolicy::kPreserve, 4096),
        util::ParseError);
  }
  {
    std::istringstream in("5000 1\n");
    const auto g =
        graph::read_edge_list(in, graph::IdPolicy::kPreserve, 8192);
    EXPECT_EQ(g.num_nodes(), 5001u);
  }
}

TEST(EdgeListHardeningTest, CompactPolicyStillAcceptsHugeSparseIds) {
  // kCompact remaps, so huge ids cost nothing and must keep working.
  std::istringstream in("18446744073709551615 7\n");
  const auto g = graph::read_edge_list(in, graph::IdPolicy::kCompact);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeListHardeningTest, TrailingGarbageAfterIdsRejected) {
  std::istringstream in(std::string("0 1\0garbage\n", 12));
  EXPECT_THROW((void)graph::read_edge_list(in), util::ParseError);
}

// --------------------------------------------------------------------------
// Release loader vs corrupted artifacts.
class ReleaseFuzz : public testing::TestWithParam<const char*> {};

TEST_P(ReleaseFuzz, CorruptedHeaderRejected) {
  std::istringstream in(GetParam());
  EXPECT_THROW((void)core::load_published(in), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    Corrupted, ReleaseFuzz,
    testing::Values(
        "",                                   // empty
        "garbage",                            // wrong magic
        "sgp-published-graph v1\n",           // wrong version
        "sgp-published-graph v2\n",           // truncated after magic
        "sgp-published-graph v2\nnodes x dim 5\n",  // non-numeric n
        "sgp-published-graph v2\nnodes 0 dim 5\n",  // zero nodes
        "sgp-published-graph v2\nnodes 5 dim 0\n",  // zero dim
        "sgp-published-graph v2\nnodes 4 dim 2\nepsilon 1\n",  // short line
        "sgp-published-graph v2\nnodes 4 dim 2\n",  // no privacy line
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon x delta 1e-6 sigma 2 sensitivity 1\n",  // non-numeric ε
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n",  // no projection line
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "kind gaussian\n",  // projection line under another key
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\nprojection dense\n"
        "data\n",  // unknown kind
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\n",  // no projection_rng line
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\ndata\n",  // v1 body under the v2 magic
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\nrng counter-v1\ndata\n",  // rng under another key
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng sequential-v0\n"
        "data\n",  // retired generator tag
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\n",  // no data marker
        // Headers no publisher writes, each over a payload of the size it
        // declares ('A' bytes, so the literal holds no NUL).
        // every field impossible
        "sgp-published-graph v2\nnodes 2 dim 3\n"
        "epsilon -1 delta 7 sigma -2 sensitivity 0\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAA",
        // dim above nodes
        "sgp-published-graph v2\nnodes 2 dim 3\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAA",
        // negative epsilon
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon -1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        // zero epsilon
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 0 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        // delta above 1
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 7 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        // zero delta
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 0 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        // delta of 1
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        // negative sigma
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma -2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        // zero sigma
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 0 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        // zero sensitivity
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 0\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        // negative sensitivity
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity -1\n"
        "projection gaussian\nprojection_rng counter-v1\ndata\n"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\n"
        "DATA\n",  // wrong marker
        "sgp-published-graph v2\nnodes 4 dim 2\n"
        "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
        "projection gaussian\nprojection_rng counter-v1\n"
        "data\nshort"));  // truncated payload

// --------------------------------------------------------------------------
// Numerically hostile operators through Lanczos.
TEST(NumericalHostilityTest, LanczosOnHugeMagnitudeOperator) {
  // Entries around 1e12: must converge without overflow.
  const std::size_t n = 30;
  linalg::SymmetricOperator op{
      n, [](std::span<const double> x, std::span<double> y) {
        for (std::size_t i = 0; i < x.size(); ++i) {
          y[i] = 1e12 * static_cast<double>(i + 1) * x[i];
        }
      }};
  linalg::LanczosOptions opt;
  opt.k = 2;
  opt.max_iterations = 30;
  const auto res = linalg::lanczos_topk(op, opt);
  EXPECT_NEAR(res.values[0], 3e13, 1e7);
}

TEST(NumericalHostilityTest, LanczosOnTinyMagnitudeOperator) {
  const std::size_t n = 30;
  linalg::SymmetricOperator op{
      n, [](std::span<const double> x, std::span<double> y) {
        for (std::size_t i = 0; i < x.size(); ++i) {
          y[i] = 1e-12 * static_cast<double>(i + 1) * x[i];
        }
      }};
  linalg::LanczosOptions opt;
  opt.k = 2;
  opt.max_iterations = 30;
  const auto res = linalg::lanczos_topk(op, opt);
  EXPECT_NEAR(res.values[0], 3e-11, 1e-15);
}

TEST(NumericalHostilityTest, ZeroOperatorConverges) {
  const std::size_t n = 20;
  linalg::SymmetricOperator op{
      n, [](std::span<const double>, std::span<double> y) {
        std::fill(y.begin(), y.end(), 0.0);
      }};
  linalg::LanczosOptions opt;
  opt.k = 3;
  opt.max_iterations = 20;
  const auto res = linalg::lanczos_topk(op, opt);
  for (double v : res.values) EXPECT_NEAR(v, 0.0, 1e-12);
}

}  // namespace
}  // namespace sgp
