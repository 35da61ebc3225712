// Normalized adjacency N = D^{-1/2} A D^{-1/2}, the operator whose top
// eigenvectors are the standard Ng–Jordan–Weiss spectral-clustering
// embedding (its spectrum is 1 − the spectrum of the normalized Laplacian).
#pragma once

#include "graph/graph.hpp"
#include "linalg/sparse_matrix.hpp"

namespace sgp::graph {

/// Normalized adjacency N = D^{-1/2} A D^{-1/2} as CSR; isolated nodes
/// contribute zero rows. Symmetric, spectrum in [−1, 1].
linalg::CsrMatrix normalized_adjacency_matrix(const Graph& g);

}  // namespace sgp::graph
