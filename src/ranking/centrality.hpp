// Node-importance scores. The paper's ranking-utility experiment asks: do
// the most central nodes of the published graph match those of the original?
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/dense_matrix.hpp"

namespace sgp::ranking {

/// Degree of every node (as doubles, for uniform ranking APIs).
std::vector<double> degree_centrality(const graph::Graph& g);

/// Principal-eigenvector centrality of the adjacency matrix via power
/// iteration. Scores are non-negative (Perron–Frobenius) and normalized to
/// unit 2-norm. Converges for connected non-bipartite graphs; the iteration
/// cap makes it robust elsewhere.
std::vector<double> eigenvector_centrality(const graph::Graph& g,
                                           std::size_t max_iterations = 200,
                                           double tolerance = 1e-10);

/// PageRank with damping factor `alpha`, uniform teleport. Dangling nodes
/// redistribute uniformly. Scores sum to 1.
std::vector<double> pagerank(const graph::Graph& g, double alpha = 0.85,
                             std::size_t max_iterations = 200,
                             double tolerance = 1e-12);

/// Centrality recovered from a published embedding: the magnitude of each
/// node's component along the top left-singular direction of the published
/// matrix approximates its eigenvector centrality in the original graph
/// (random projection preserves the dominant spectral structure).
std::vector<double> centrality_from_embedding(
    const linalg::DenseMatrix& top_left_singular);

}  // namespace sgp::ranking
