#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace sgp::graph {
namespace {

Graph triangle_plus_isolated() {
  // Nodes 0-1-2 form a triangle; node 3 isolated.
  return Graph::from_edges(4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, NodesWithoutEdges) {
  const auto g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(GraphTest, BasicAdjacency) {
  const auto g = triangle_plus_isolated();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(GraphTest, NeighborsSorted) {
  const auto g = Graph::from_edges(4, std::vector<Edge>{{2, 0}, {2, 3}, {2, 1}});
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(GraphTest, DuplicateEdgesMerged) {
  const auto g =
      Graph::from_edges(2, std::vector<Edge>{{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, SelfLoopRejected) {
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{1, 1}}),
               std::invalid_argument);
}

TEST(GraphTest, OutOfRangeEndpointRejected) {
  EXPECT_THROW(Graph::from_edges(2, std::vector<Edge>{{0, 2}}),
               std::invalid_argument);
}

TEST(GraphTest, EdgesCanonicalOrder) {
  const auto g = Graph::from_edges(4, std::vector<Edge>{{3, 1}, {2, 0}, {1, 0}});
  const auto es = g.edges();
  ASSERT_EQ(es.size(), 3u);
  EXPECT_EQ(es[0], (Edge{0, 1}));
  EXPECT_EQ(es[1], (Edge{0, 2}));
  EXPECT_EQ(es[2], (Edge{1, 3}));
}

TEST(GraphTest, AdjacencyMatrixSymmetricZeroOne) {
  const auto g = triangle_plus_isolated();
  const auto a = g.adjacency_matrix();
  EXPECT_EQ(a.rows(), 4u);
  EXPECT_EQ(a.cols(), 4u);
  EXPECT_EQ(a.nnz(), 6u);  // 2 per undirected edge
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 0.0);
}

TEST(GraphTest, AverageDegree) {
  const auto g = triangle_plus_isolated();
  EXPECT_DOUBLE_EQ(g.average_degree(), 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(Graph().average_degree(), 0.0);
}

TEST(ComponentsTest, SingleComponent) {
  const auto g = triangle_plus_isolated();
  const auto cc = connected_components(g);
  EXPECT_EQ(cc.count, 2u);
  EXPECT_EQ(cc.labels[0], cc.labels[1]);
  EXPECT_EQ(cc.labels[1], cc.labels[2]);
  EXPECT_NE(cc.labels[0], cc.labels[3]);
}

TEST(ComponentsTest, AllIsolated) {
  const auto g = Graph::from_edges(4, {});
  const auto cc = connected_components(g);
  EXPECT_EQ(cc.count, 4u);
}

TEST(ComponentsTest, TwoChains) {
  const auto g =
      Graph::from_edges(6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto cc = connected_components(g);
  EXPECT_EQ(cc.count, 2u);
  EXPECT_EQ(cc.labels[0], cc.labels[2]);
  EXPECT_EQ(cc.labels[3], cc.labels[5]);
  EXPECT_NE(cc.labels[0], cc.labels[3]);
}

}  // namespace
}  // namespace sgp::graph
