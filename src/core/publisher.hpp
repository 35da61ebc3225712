// The paper's mechanism: differentially private graph publication via random
// projection + random perturbation.
//
//   1. Project:  Y = A · P,   P ∈ R^{n×m} random (Gaussian or Achlioptas),
//                             m ≪ n  →  O(|E|·m) time, O(n·m) space.
//   2. Perturb:  Ỹ = Y + N,   N i.i.d. N(0, σ²), σ from core/theory.hpp.
//   3. Publish:  Ỹ plus non-private metadata.
//
// The published object supports the paper's two utility applications through
// `spectral_embedding` (node clustering) and `centrality_scores`
// (node ranking) — both derived from the top left singular vectors of Ỹ,
// which approximate the top eigenvectors of A.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cluster/kmeans.hpp"
#include "core/projection.hpp"
#include "core/theory.hpp"
#include "dp/defaults.hpp"
#include "dp/privacy.hpp"
#include "graph/graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/sparse_matrix.hpp"
#include "random/kernel_variant.hpp"

namespace sgp::util {
class ThreadPool;
}  // namespace sgp::util

namespace sgp::core {

/// Which generator family produced P (and the noise) for a release. Recorded
/// in the release metadata so reconstruction can regenerate P exactly.
enum class ProjectionRngKind {
  /// Counter-based releases (the fused kernel): P[i][j] and N[i][j] are pure
  /// functions of (seed, i·m + j) — see core/projection.hpp. Gaussian draws
  /// use the scalar libm Box–Muller mapping.
  kCounterV1,
  /// Counter-based releases whose gaussian draws use the polynomial normal
  /// mapping of the vector kernels (random/counter_rng_simd.hpp). Same
  /// counter layout as kCounterV1; only the normal transform differs. The
  /// mapping is ISA-independent (generic/avx2/avx512 are bit-identical), so
  /// any machine can regenerate P for these releases via the always-compiled
  /// generic kernel. Achlioptas releases never carry this tag — their
  /// uniform transform is exact under every kernel variant.
  kCounterV1Simd,
};

[[nodiscard]] std::string to_string(ProjectionRngKind kind);
/// Inverse of to_string ("counter-v1" / "counter-v1-simd"); throws
/// util::ParseError for anything else.
[[nodiscard]] ProjectionRngKind parse_projection_rng(const std::string& s);

/// The tag a new release publishes under, given its projection family and
/// the RESOLVED kernel variant (never kAuto): gaussian + polynomial normals
/// → kCounterV1Simd, everything else → kCounterV1. Shared by the in-memory,
/// streaming, and sharded publishers so the three can never disagree.
[[nodiscard]] ProjectionRngKind projection_rng_for(
    ProjectionKind projection, random::KernelVariant resolved_kernel);

/// The artifact a data owner releases. Everything in here is safe to share:
/// `data` is the perturbed projection; the metadata (n, m, ε, δ, σ) is
/// data-independent.
struct PublishedGraph {
  linalg::DenseMatrix data;      ///< Ỹ, n × m
  std::size_t num_nodes = 0;     ///< n of the original graph
  std::size_t projection_dim = 0;  ///< m
  dp::PrivacyParams params;      ///< budget consumed by this release
  NoiseCalibration calibration;  ///< σ and sensitivity actually used
  ProjectionKind projection = ProjectionKind::kGaussian;
  /// Generator family of this release (see projection_rng_for).
  ProjectionRngKind projection_rng = ProjectionRngKind::kCounterV1;

  /// Size of the release in bytes (doubles of Ỹ) — the storage-efficiency
  /// metric of experiment E7.
  [[nodiscard]] std::size_t published_bytes() const {
    return data.rows() * data.cols() * sizeof(double);
  }
};

class RandomProjectionPublisher {
 public:
  struct Options {
    std::size_t projection_dim = 100;  ///< m
    dp::PrivacyParams params{1.0, 1e-6};
    ProjectionKind projection = ProjectionKind::kGaussian;
    std::uint64_t seed = 7;
    bool analytic_calibration = true;  ///< false → classic Gaussian bound
    /// Fraction of δ spent on the sensitivity-bound failure probability.
    double delta_split = dp::kDefaultDeltaSplit;
    /// Which counter-RNG batch kernel generates P and the noise. kAuto keeps
    /// gaussian normals on the byte-stable scalar mapping (unless
    /// SGP_FORCE_KERNEL overrides) while exact ops pick the fastest ISA; a
    /// vector variant publishes gaussian releases under the
    /// "counter-v1-simd" tag. See random/kernel_variant.hpp.
    random::KernelVariant kernel = random::KernelVariant::kAuto;

    /// σ and sensitivity under these options (core/theory.hpp): the one
    /// calibration every publish path, session and ledger record shares.
    [[nodiscard]] NoiseCalibration calibration() const;
  };

  explicit RandomProjectionPublisher(Options options);

  /// Publishes `g` under the configured budget. Requires m <= n.
  [[nodiscard]] PublishedGraph publish(const graph::Graph& g) const;

  /// Publishes an arbitrary symmetric weighted matrix (e.g. an interaction-
  /// strength matrix — the abstract's general "publishing matrices" setting)
  /// under the neighboring relation "one symmetric pair of entries changes
  /// by at most `max_entry_change`". The pair moves two rows of Ỹ, and
  /// their ℓ2-sensitivity scales linearly, so σ is `max_entry_change` times
  /// the 0/1-graph calibration. Requires a
  /// square symmetric matrix and m <= n.
  [[nodiscard]] PublishedGraph publish_matrix(const linalg::CsrMatrix& matrix,
                                              double max_entry_change) const;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_;
};

/// Rows [row_begin, row_end) of an adjacency structure, transposed: for
/// each source node j, the local rows (i − row_begin) whose neighbor list
/// holds j, ascending. This is the index publish_rows pushes each P_j
/// through. Its size is num_sources + 1 offsets plus one entry per
/// neighbor-list entry of the rows.
struct RowsBySource {
  std::size_t num_rows = 0;
  std::vector<std::size_t> offsets;  ///< num_sources + 1; source j's rows
  std::vector<std::uint32_t> rows;   ///< local row ids, grouped by source

  [[nodiscard]] linalg::SourceMajorView view() const {
    return {offsets, rows, {}, num_rows};
  }
};

/// Builds the RowsBySource of rows [row_begin, row_end), where
/// `neighbors(i)` is global row i's neighbor list. A counting sort keyed by
/// source (count, prefix sum, scatter), filled from the end so no cursor
/// array is needed: O(num_sources + entries) time and memory, where
/// num_sources is one past the largest neighbor id.
[[nodiscard]] RowsBySource transpose_rows(
    std::size_t row_begin, std::size_t row_end,
    const std::function<std::span<const std::uint32_t>(std::size_t)>&
        neighbors);

/// Computes rows [row_begin, row_end) of the release into `out`, which
/// holds (row_end − row_begin)·m zeroed doubles, row-major:
///   1. project: out += A·P through `index` (the rows' adjacency read
///      source-major, destinations local to row_begin), drawing each
///      needed row of P once (span publish.project);
///   2. perturb: add σ·N_i to each row i (span publish.perturb).
/// P_j and N_i are pure functions of (seed, counter, kernel mapping) and
/// each output cell sums its P rows in ascending j, so the bytes do not
/// depend on how a release is cut into row ranges or on the pool. Every
/// publish mode funnels through here, so publish.cells counts each row
/// once. `options.kernel` is resolved per call; a caller that publishes in
/// several calls passes the resolved variant.
void publish_rows(const linalg::SourceMajorView& index, std::size_t row_begin,
                  std::size_t row_end,
                  const RandomProjectionPublisher::Options& options,
                  const NoiseCalibration& calibration, util::ThreadPool& pool,
                  std::span<double> out);

/// Analyst-side: top-k left singular vectors of Ỹ (n×k) — the spectral node
/// embedding used for clustering. Requires 1 <= k <= m.
linalg::DenseMatrix spectral_embedding(const PublishedGraph& published,
                                       std::size_t k);

/// Analyst-side: eigenvector-centrality surrogate from the dominant left
/// singular vector of Ỹ.
std::vector<double> centrality_scores(const PublishedGraph& published);

/// Analyst-side: degree estimates from published row norms. JL preserves
/// ‖A_{i,·}‖² = deg(i), so E‖Ỹ_{i,·}‖² = deg(i) + m·σ²; this returns the
/// debiased ‖Ỹ_{i,·}‖² − m·σ² (can be negative for low-degree nodes under
/// heavy noise — fine for ranking purposes).
std::vector<double> degree_scores(const PublishedGraph& published);

/// Analyst-side convenience: spectral clustering of the published graph into
/// `k` groups (embedding + row normalization + k-means).
cluster::KMeansResult cluster_published(const PublishedGraph& published,
                                        std::size_t k, std::uint64_t seed = 7);

}  // namespace sgp::core
