// The mechanism family: one interface over every way this repo can publish
// a graph under an (ε, δ) budget.
//
// The paper's projection+perturbation publisher releases a noisy projected
// matrix; the community-level mechanisms (after "PrivGraph: Differentially
// Private Graph Data Publication by Exploiting Community Information",
// PAPERS.md) release a *synthetic graph* resampled from a noisy community
// profile. Wrapping both behind `Mechanism` lets the scenario engine
// (core/scenario.hpp), the E14 bench, and `sgp_analyze --compare-mechanisms`
// treat "which mechanism" as just another grid axis.
//
// Budget discipline is enforced by the base class, not by each
// implementation: `Mechanism::charge` is the one code in src/ that appends
// to a BudgetLedger (sgp-lint R8). `publish` is charge, then build, and
// PublishingSession (core/session.hpp) charges through the projection
// mechanism's charge. All ε/δ splitting happens through dp/budget.hpp;
// hand-rolled budget arithmetic in a mechanism body is an R8 violation.
//
// Determinism contract: every implementation is a pure function of
// (graph, options) — noise and resampling draw from counter/seeded streams
// derived from options.seed, so equal inputs give byte-identical releases
// regardless of thread count or call order.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "core/publisher.hpp"
#include "dp/budget.hpp"
#include "dp/defaults.hpp"
#include "dp/privacy.hpp"
#include "dp/rdp_accountant.hpp"
#include "graph/graph.hpp"

namespace sgp::core {

enum class MechanismKind {
  /// The paper's mechanism: random projection + Gaussian perturbation
  /// (core/publisher.hpp). Releases a noisy n×m matrix.
  kProjection,
  /// PrivGraph-style edge-DP community publishing: partition on a
  /// randomized-response sketch, Laplace-noise the community edge-count
  /// profile, resample a synthetic graph from the noisy profile.
  kPrivGraph,
  /// Node-DP community-preserved variant: degree-capped graph, group-privacy
  /// randomized response for the partition, Laplace noise at ℓ1-sensitivity
  /// `max_degree` on the counts.
  kNodeCommunity,
};

[[nodiscard]] std::string to_string(MechanismKind kind);
/// Inverse of to_string ("projection" / "privgraph" / "node-community");
/// throws util::PreconditionError listing the valid names for anything else.
[[nodiscard]] MechanismKind parse_mechanism(const std::string& name);
/// All registered mechanism names, in registry order.
[[nodiscard]] const std::vector<std::string>& known_mechanism_names();

/// The publisher's options (budget, seed, m, calibration, kernel), so a
/// projection charge records the σ its release is published with.
struct MechanismOptions : RandomProjectionPublisher::Options {
  /// Community mechanisms: share of ε/δ spent on the partition phase; the
  /// remainder buys the Laplace noise on the edge-count profile.
  double partition_share = dp::kDefaultPartitionShare;
  /// kNodeCommunity: degree cap D of the node-DP neighboring relation.
  std::size_t max_degree = 16;
  /// When set, the release is charged here write-ahead (exactly one record
  /// per charge, appended before the artifact is built).
  BudgetLedger* ledger = nullptr;
  /// When set, the release's RDP curve is accumulated here.
  dp::RdpAccountant* accountant = nullptr;
};

/// What a mechanism hands back: exactly one payload — a published matrix
/// (kProjection) or a synthetic graph (community mechanisms) — plus the
/// budget actually charged and the community count where one exists.
struct MechanismRelease {
  MechanismKind kind = MechanismKind::kProjection;
  dp::PrivacyParams charged;  ///< total (ε, δ) charged for this release
  std::size_t num_nodes = 0;  ///< n of the original graph (preserved)
  std::optional<PublishedGraph> matrix;
  std::optional<graph::Graph> synthetic;
  std::size_t num_communities = 0;

  /// Structural self-check: exactly one payload, node counts agree, the
  /// charged budget validates. Returns false instead of throwing so test
  /// grids can assert on it per cell.
  [[nodiscard]] bool validate() const;
};

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  [[nodiscard]] virtual MechanismKind kind() const = 0;

  /// The write-ahead step: validates options.params, appends this
  /// mechanism's record to options.ledger (logging ledger.charge) and feeds
  /// options.accountant. A throw (bad budget, failed append) charges nothing.
  BudgetLedger::Record charge(const MechanismOptions& options) const;

  /// Publishes `g`: charge, then build. A build that throws after the
  /// charge leaves the budget spent — an over-count, the safe direction.
  [[nodiscard]] MechanismRelease publish(const graph::Graph& g,
                                         const MechanismOptions& options) const;

 protected:
  /// The ledger record this release will charge (index filled in by
  /// charge): ε/δ plus the noise scale and sensitivity actually used.
  [[nodiscard]] virtual BudgetLedger::Record ledger_record(
      const MechanismOptions& options) const = 0;

  /// Accumulates the RDP curve of the release `record` charges into
  /// `accountant`.
  virtual void account(const MechanismOptions& options,
                       const BudgetLedger::Record& record,
                       dp::RdpAccountant& accountant) const = 0;

  /// Builds the release artifact; the budget is already charged.
  [[nodiscard]] virtual MechanismRelease build(
      const graph::Graph& g, const MechanismOptions& options) const = 0;
};

/// Factory over the registry; the string overload accepts the names
/// `known_mechanism_names` lists.
[[nodiscard]] std::unique_ptr<Mechanism> make_mechanism(MechanismKind kind);
[[nodiscard]] std::unique_ptr<Mechanism> make_mechanism(
    const std::string& name);

}  // namespace sgp::core
