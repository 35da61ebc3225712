#include "core/mechanism.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "cluster/kmeans.hpp"
#include "core/theory.hpp"
#include "dp/budget.hpp"
#include "dp/mechanisms.hpp"
#include "graph/graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/eigen_sym.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "random/counter_rng.hpp"
#include "util/check.hpp"

namespace sgp::core {
namespace {

// Counter-RNG stream ids of a community release, all derived from
// options.seed. Stream 0/1 are reserved by the projection publisher
// (core/projection.hpp), so community streams start well above.
constexpr std::uint64_t kPartitionStream = 0x100;
constexpr std::uint64_t kCountsStream = 0x101;
constexpr std::uint64_t kResampleStreamBase = 0x1000;

// Upper bound on the spectral-gap community count estimate: caps both the
// k-means cost and the k² block profile of a degenerate partition.
constexpr std::size_t kMaxCommunities = 16;

/// Node lists per community, from a dense assignment vector.
std::vector<std::vector<std::uint32_t>> community_members(
    const std::vector<std::uint32_t>& assignments, std::size_t k) {
  std::vector<std::vector<std::uint32_t>> members(k);
  for (std::size_t u = 0; u < assignments.size(); ++u) {
    members[assignments[u]].push_back(static_cast<std::uint32_t>(u));
  }
  return members;
}

/// Exact edge counts between (and within) communities of `g`. Block (c, d)
/// with c <= d is stored at index c*k + d.
std::vector<double> block_edge_counts(const graph::Graph& g,
                                      const std::vector<std::uint32_t>& labels,
                                      std::size_t k) {
  std::vector<double> counts(k * k, 0.0);
  for (const auto& e : g.edges()) {
    std::uint32_t c = labels[e.u];
    std::uint32_t d = labels[e.v];
    if (c > d) std::swap(c, d);
    counts[c * k + d] += 1.0;
  }
  return counts;
}

std::size_t block_capacity(const std::vector<std::vector<std::uint32_t>>& m,
                           std::size_t c, std::size_t d) {
  if (c == d) return m[c].size() * (m[c].size() - 1) / 2;
  return m[c].size() * m[d].size();
}

/// Samples `target` distinct node pairs from block (c, d) via the keyed
/// counter stream of that block — deterministic in (seed, c, d), independent
/// of every other block. Attempts are capped so near-full blocks terminate;
/// a shortfall of a few edges is within the mechanism's noise tolerance.
void sample_block_edges(const std::vector<std::vector<std::uint32_t>>& members,
                        std::size_t c, std::size_t d, std::size_t target,
                        std::uint64_t seed, std::size_t k,
                        std::vector<graph::Edge>& out) {
  const auto& mc = members[c];
  const auto& md = members[d];
  if (target == 0 || mc.empty() || md.empty()) return;
  const random::CounterRng rng(seed, kResampleStreamBase + c * k + d);
  std::set<std::pair<std::uint32_t, std::uint32_t>> chosen;
  const std::size_t max_attempts = 24 * target + 256;
  for (std::uint64_t w = 0; w < max_attempts && chosen.size() < target; ++w) {
    std::uint32_t u = mc[rng.bits(2 * w) % mc.size()];
    std::uint32_t v = md[rng.bits(2 * w + 1) % md.size()];
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    chosen.emplace(u, v);
  }
  for (const auto& [u, v] : chosen) out.push_back({u, v});
}

/// Resamples a synthetic graph on `n` nodes from a noisy community
/// edge-count profile.
graph::Graph resample_from_profile(
    std::size_t n, const std::vector<std::vector<std::uint32_t>>& members,
    const std::vector<double>& noisy_counts, std::uint64_t seed) {
  const std::size_t k = members.size();
  std::vector<graph::Edge> edges;
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t d = c; d < k; ++d) {
      const double noisy = noisy_counts[c * k + d];
      const auto capacity = static_cast<double>(block_capacity(members, c, d));
      const double clamped = std::clamp(std::round(noisy), 0.0, capacity);
      sample_block_edges(members, c, d, static_cast<std::size_t>(clamped),
                         seed, k, edges);
    }
  }
  std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  return graph::Graph::from_edges(n, edges);
}

/// Deterministic degree cap: walk the canonical sorted edge list and keep an
/// edge only while both endpoints still have capacity. This is the standard
/// node-DP projection that bounds per-node sensitivity at `max_degree`.
graph::Graph clamp_degrees(const graph::Graph& g, std::size_t max_degree) {
  std::vector<std::size_t> degree(g.num_nodes(), 0);
  std::vector<graph::Edge> kept;
  for (const auto& e : g.edges()) {
    if (degree[e.u] < max_degree && degree[e.v] < max_degree) {
      ++degree[e.u];
      ++degree[e.v];
      kept.push_back(e);
    }
  }
  return graph::Graph::from_edges(g.num_nodes(), kept);
}

/// A community assignment produced by the private partition phase.
struct Partition {
  std::vector<std::uint32_t> labels;
  std::size_t num_communities = 0;
};

/// Renumbers labels to a dense 0..k-1 range, first-seen order.
std::size_t compact_partition(std::vector<std::uint32_t>& labels) {
  std::map<std::uint32_t, std::uint32_t> remap;
  for (std::uint32_t& l : labels) {
    const auto [it, inserted] =
        remap.emplace(l, static_cast<std::uint32_t>(remap.size()));
    l = it->second;
  }
  return remap.size();
}

/// The ε₁-DP partition phase: release the Laplace-perturbed signed dense
/// adjacency W = A + Lap(scale)^{n×n} — one edge change moves one entry by
/// the sensitivity, so releasing all entries at `scale = sensitivity/ε₁` is
/// ε₁-DP — then recover communities from W by pure post-processing:
/// symmetric eigendecomposition, largest-spectral-gap estimate of the
/// community count, and k-means on the top-k eigenvector embedding.
///
/// The spectral route matters: Louvain on W chases individual noise spikes
/// at the singleton level (noise enters each modularity gain un-averaged),
/// while eigenvectors aggregate every entry, so the planted structure
/// survives noise that is several times the per-entry signal. The dense
/// eigensolve is O(n³) — community mechanisms target the modest graph sizes
/// of the evaluation grid, not million-node releases.
Partition noisy_partition(const graph::Graph& g, double sensitivity,
                          const dp::PrivacyParams& budget,
                          const MechanismOptions& options) {
  const std::size_t n = g.num_nodes();
  Partition result;
  result.labels.assign(n, 0);
  result.num_communities = n == 0 ? 0 : 1;
  if (n < 4) return result;

  const double scale = dp::laplace_scale(sensitivity, budget.epsilon);
  const random::CounterRng noise(options.seed, kPartitionStream);
  linalg::DenseMatrix w(n, n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      const double x =
          (g.has_edge(static_cast<std::uint32_t>(u),
                      static_cast<std::uint32_t>(v))
               ? 1.0
               : 0.0) +
          dp::laplace_noise_at(noise, static_cast<std::uint64_t>(u) * n + v,
                               scale);
      w(u, v) = x;
      w(v, u) = x;
    }
  }

  const linalg::EigenResult eig = linalg::symmetric_eigen(w);

  // Largest gap between consecutive top eigenvalues picks k: signal
  // eigenvalues sit above the noise bulk, and the drop into the bulk is the
  // widest gap. Candidates are capped so a gapless spectrum (no recoverable
  // structure) degrades to a coarse 2-way split instead of shattering.
  const std::size_t kmax = std::min<std::size_t>(kMaxCommunities, n - 1);
  std::size_t k = 2;
  double best_gap = -1.0;
  for (std::size_t i = 2; i <= kmax; ++i) {
    const double gap = eig.values[i - 1] - eig.values[i];
    if (gap > best_gap) {
      best_gap = gap;
      k = i;
    }
  }

  linalg::DenseMatrix embedding(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) embedding(i, j) = eig.vectors(i, j);
  }
  cluster::KMeansOptions kopt;
  kopt.k = k;
  kopt.seed = options.seed;
  const cluster::KMeansResult km = cluster::kmeans(embedding, kopt);
  result.labels = km.assignments;
  result.num_communities = compact_partition(result.labels);
  return result;
}

/// Shared build path of the two community mechanisms: grouped noisy-
/// supergraph partition → Laplace-noised block counts → resample. `source`
/// is the (possibly degree-capped) graph whose structure is released;
/// `sensitivity` the per-count ℓ1-sensitivity; `partition_budget` the ε₁
/// slice funding the partition phase; `count_scale` the Laplace scale of
/// the counts phase.
MechanismRelease build_community_release(
    const graph::Graph& source, double sensitivity,
    const dp::PrivacyParams& partition_budget, double count_scale,
    const MechanismOptions& options) {
  Partition partition;
  {
    obs::ScopedTimer timer(obs::names::kMechanismPartition);
    partition = noisy_partition(source, sensitivity, partition_budget, options);
  }
  const std::size_t k = partition.num_communities;
  const auto members = community_members(partition.labels, k);

  std::vector<double> counts;
  {
    obs::ScopedTimer timer(obs::names::kMechanismPerturb);
    counts = block_edge_counts(source, partition.labels, k);
    const random::CounterRng noise(options.seed, kCountsStream);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t d = c; d < k; ++d) {
        counts[c * k + d] +=
            dp::laplace_noise_at(noise, c * k + d, count_scale);
      }
    }
  }

  MechanismRelease release;
  release.num_nodes = source.num_nodes();
  release.num_communities = k;
  {
    obs::ScopedTimer timer(obs::names::kMechanismResample);
    release.synthetic = resample_from_profile(source.num_nodes(), members,
                                              counts, options.seed);
  }
  obs::gauge(obs::names::kMechanismCommunities).set(static_cast<double>(k));
  obs::counter(obs::names::kMechanismSyntheticEdges)
      .add(release.synthetic->num_edges());
  return release;
}

/// Shared RDP accounting of the community mechanisms: two Laplace releases —
/// the partition's noisy adjacency at λ/Δ = 1/ε₁, the block-count profile at
/// σ/Δ = 1/ε₂. The pure-DP bound of the composition is exactly ε₁ + ε₂ = ε.
void account_community(const MechanismOptions& options, double sensitivity,
                       double counts_sigma, dp::RdpAccountant& accountant) {
  const dp::BudgetSplit split =
      dp::split_budget(options.params, options.partition_share);
  accountant.record_laplace(
      dp::laplace_scale(sensitivity, split.partition.epsilon) / sensitivity);
  accountant.record_laplace(counts_sigma / sensitivity);
}

class ProjectionMechanism final : public Mechanism {
 public:
  [[nodiscard]] MechanismKind kind() const override {
    return MechanismKind::kProjection;
  }

 protected:
  [[nodiscard]] BudgetLedger::Record ledger_record(
      const MechanismOptions& options) const override {
    const NoiseCalibration calibration = options.calibration();
    BudgetLedger::Record record;
    record.epsilon = options.params.epsilon;
    record.delta = options.params.delta;
    record.sigma = calibration.sigma;
    record.sensitivity = calibration.sensitivity;
    return record;
  }

  void account(const MechanismOptions& /*options*/,
               const BudgetLedger::Record& record,
               dp::RdpAccountant& accountant) const override {
    accountant.record_gaussian(record.sigma / record.sensitivity);
  }

  [[nodiscard]] MechanismRelease build(
      const graph::Graph& g, const MechanismOptions& options) const override {
    MechanismRelease release;
    release.num_nodes = g.num_nodes();
    release.matrix = RandomProjectionPublisher(options).publish(g);
    return release;
  }
};

class PrivGraphMechanism final : public Mechanism {
 public:
  [[nodiscard]] MechanismKind kind() const override {
    return MechanismKind::kPrivGraph;
  }

 protected:
  [[nodiscard]] BudgetLedger::Record ledger_record(
      const MechanismOptions& options) const override {
    const dp::BudgetSplit split =
        dp::split_budget(options.params, options.partition_share);
    BudgetLedger::Record record;
    record.epsilon = options.params.epsilon;
    record.delta = options.params.delta;
    // One edge moves exactly one block count by 1: ℓ1-sensitivity 1.
    record.sensitivity = 1.0;
    record.sigma = dp::laplace_scale(record.sensitivity, split.counts.epsilon);
    return record;
  }

  void account(const MechanismOptions& options,
               const BudgetLedger::Record& record,
               dp::RdpAccountant& accountant) const override {
    account_community(options, record.sensitivity, record.sigma, accountant);
  }

  [[nodiscard]] MechanismRelease build(
      const graph::Graph& g, const MechanismOptions& options) const override {
    const dp::BudgetSplit split =
        dp::split_budget(options.params, options.partition_share);
    const BudgetLedger::Record record = ledger_record(options);
    return build_community_release(g, record.sensitivity, split.partition,
                                   record.sigma, options);
  }
};

class NodeCommunityMechanism final : public Mechanism {
 public:
  [[nodiscard]] MechanismKind kind() const override {
    return MechanismKind::kNodeCommunity;
  }

 protected:
  [[nodiscard]] BudgetLedger::Record ledger_record(
      const MechanismOptions& options) const override {
    util::require(options.max_degree > 0,
                  "node-community: max_degree must be > 0");
    const dp::BudgetSplit split =
        dp::split_budget(options.params, options.partition_share);
    BudgetLedger::Record record;
    record.epsilon = options.params.epsilon;
    record.delta = options.params.delta;
    // Adding or removing one node rewrites at most max_degree edges of the
    // capped graph, each moving one block count by 1: ℓ1-sensitivity D.
    record.sensitivity = static_cast<double>(options.max_degree);
    record.sigma = dp::laplace_scale(record.sensitivity, split.counts.epsilon);
    return record;
  }

  void account(const MechanismOptions& options,
               const BudgetLedger::Record& record,
               dp::RdpAccountant& accountant) const override {
    account_community(options, record.sensitivity, record.sigma, accountant);
  }

  [[nodiscard]] MechanismRelease build(
      const graph::Graph& g, const MechanismOptions& options) const override {
    const dp::BudgetSplit split =
        dp::split_budget(options.params, options.partition_share);
    const BudgetLedger::Record record = ledger_record(options);
    // On the D-capped graph one node rewrites at most max_degree edges, so
    // every released count carries the full ℓ1-sensitivity D.
    const graph::Graph capped = clamp_degrees(g, options.max_degree);
    MechanismRelease release = build_community_release(
        capped, record.sensitivity, split.partition, record.sigma, options);
    release.num_nodes = g.num_nodes();
    return release;
  }
};

}  // namespace

std::string to_string(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kProjection:
      return "projection";
    case MechanismKind::kPrivGraph:
      return "privgraph";
    case MechanismKind::kNodeCommunity:
      return "node-community";
  }
  util::require(false, "to_string: invalid MechanismKind");
  return {};
}

const std::vector<std::string>& known_mechanism_names() {
  static const std::vector<std::string> names{
      to_string(MechanismKind::kProjection),
      to_string(MechanismKind::kPrivGraph),
      to_string(MechanismKind::kNodeCommunity)};
  return names;
}

MechanismKind parse_mechanism(const std::string& name) {
  if (name == "projection") return MechanismKind::kProjection;
  if (name == "privgraph") return MechanismKind::kPrivGraph;
  if (name == "node-community") return MechanismKind::kNodeCommunity;
  std::string valid;
  for (const auto& n : known_mechanism_names()) {
    if (!valid.empty()) valid += "|";
    valid += n;
  }
  util::require(false, "unknown mechanism '" + name + "' (valid: " + valid +
                           ")");
  return MechanismKind::kProjection;
}

bool MechanismRelease::validate() const {
  if (matrix.has_value() == synthetic.has_value()) return false;
  if (charged.epsilon <= 0.0 || charged.delta < 0.0 || charged.delta >= 1.0) {
    return false;
  }
  if (matrix.has_value()) {
    if (matrix->num_nodes != num_nodes) return false;
    if (matrix->data.rows() != num_nodes) return false;
  }
  if (synthetic.has_value()) {
    if (synthetic->num_nodes() != num_nodes) return false;
    if (num_communities == 0) return false;
  }
  return true;
}

BudgetLedger::Record Mechanism::charge(const MechanismOptions& options) const {
  options.params.validate();
  // Times the write-ahead charge and scopes its ledger.charge event (R10).
  obs::ScopedTimer timer(obs::names::kMechanismCharge);
  BudgetLedger::Record record = ledger_record(options);
  if (options.ledger != nullptr) {
    record.index = options.ledger->size() + 1;
    options.ledger->append(record);
    char eps[32];
    char delta[32];
    std::snprintf(eps, sizeof(eps), "%g", record.epsilon);
    std::snprintf(delta, sizeof(delta), "%g", record.delta);
    obs::log_event(obs::names::kEventLedgerCharge,
                   {{"release", std::to_string(record.index)},
                    {"epsilon", eps},
                    {"delta", delta}});
  }
  if (options.accountant != nullptr) {
    account(options, record, *options.accountant);
  }
  return record;
}

MechanismRelease Mechanism::publish(const graph::Graph& g,
                                    const MechanismOptions& options) const {
  obs::ScopedTimer timer(obs::names::kMechanismPublish);
  // Write-ahead: the budget is durably recorded before any artifact exists
  // (docs/robustness.md).
  charge(options);
  MechanismRelease release = build(g, options);
  release.kind = kind();
  release.charged = options.params;
  obs::counter(obs::names::kMechanismReleases).add();
  return release;
}

std::unique_ptr<Mechanism> make_mechanism(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kProjection:
      return std::make_unique<ProjectionMechanism>();
    case MechanismKind::kPrivGraph:
      return std::make_unique<PrivGraphMechanism>();
    case MechanismKind::kNodeCommunity:
      return std::make_unique<NodeCommunityMechanism>();
  }
  util::require(false, "make_mechanism: invalid MechanismKind");
  return nullptr;
}

std::unique_ptr<Mechanism> make_mechanism(const std::string& name) {
  return make_mechanism(parse_mechanism(name));
}

}  // namespace sgp::core
