#include "core/session.hpp"

#include <algorithm>
#include <cmath>

#include "core/mechanism.hpp"
#include "dp/rdp_accountant.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "random/rng.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace sgp::core {
namespace {

/// Recorded and configured per-release budgets must agree bit-for-bit up to
/// the text round trip (the ledger prints max_digits10, so exact equality
/// is expected; the epsilon tolerance only forgives the last ulp).
bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(a));
}

}  // namespace

PublishingSession::PublishingSession(Options options)
    : options_(std::move(options)) {
  options_.total_budget.validate();
  const auto& per_release = options_.publisher.params;
  per_release.validate();
  util::require(per_release.epsilon <= options_.total_budget.epsilon,
                "session: per-release epsilon exceeds the total budget");
  calibration_ = options_.publisher.calibration();
}

PublishingSession::PublishingSession(Options options,
                                     const std::string& ledger_path)
    : PublishingSession(std::move(options)) {
  ledger_ = std::make_unique<BudgetLedger>(ledger_path);
  const auto& per = options_.publisher.params;
  for (const BudgetLedger::Record& r : ledger_->records()) {
    if (!close(r.epsilon, per.epsilon) || !close(r.delta, per.delta)) {
      throw util::LedgerCorruptError(
          "budget ledger " + ledger_->path() + ": record " +
          std::to_string(r.index) +
          " was written under different per-release parameters than this "
          "session is configured with — refusing to recover");
    }
  }
  releases_ = ledger_->size();
}

dp::PrivacyParams PublishingSession::spent_after(std::size_t releases) const {
  if (releases == 0) return {0.0, 0.0};
  const auto& per = options_.publisher.params;

  // Path 1: sequential composition of the full (ε, δ) releases.
  const double basic_eps = per.epsilon * static_cast<double>(releases);

  // Path 2: RDP of the Gaussian part. Each release is a Gaussian mechanism
  // with noise multiplier σ/Δ, plus δ_projection from the sensitivity bound.
  // Convert at whatever δ headroom remains after the projection failures.
  const double delta_proj_total =
      calibration_.delta_projection * static_cast<double>(releases);
  double rdp_eps = basic_eps;
  if (delta_proj_total < options_.total_budget.delta) {
    dp::RdpAccountant rdp;
    const double multiplier = calibration_.sigma / calibration_.sensitivity;
    for (std::size_t i = 0; i < releases; ++i) rdp.record_gaussian(multiplier);
    rdp_eps =
        rdp.to_dp(options_.total_budget.delta - delta_proj_total).epsilon;
  }
  return {std::min(basic_eps, rdp_eps), options_.total_budget.delta};
}

RandomProjectionPublisher::Options PublishingSession::release_options(
    std::uint64_t index) const {
  util::require(index >= 1 && index <= releases_,
                "session: release index must be in [1, num_releases()]");
  RandomProjectionPublisher::Options opt = options_.publisher;
  // Fresh randomness per release: mix the release index into the seed.
  std::uint64_t mix = opt.seed + 0x9e3779b97f4a7c15ULL * index;
  opt.seed = random::splitmix64(mix);
  return opt;
}

RandomProjectionPublisher::Options PublishingSession::begin_release() {
  // Times the cap check and the charge.
  obs::ScopedTimer timer(obs::names::kSessionBeginRelease);
  const auto projected = spent_after(releases_ + 1);
  if (projected.epsilon > options_.total_budget.epsilon) {
    obs::counter(obs::names::kSessionBudgetRefusals).add();
    throw util::BudgetExhaustedError(
        "session: publishing would exceed the total privacy budget (spent " +
        spent().to_string() + " of cap " + options_.total_budget.to_string() +
        ")");
  }

  // Write-ahead: the charge is persisted BEFORE the artifact is computed,
  // so a process that dies — or a publisher that throws — after this point
  // leaves the budget spent with no artifact out: an over-count, the safe
  // direction. A failed append throws here and charges nothing.
  MechanismOptions charge{options_.publisher};
  charge.ledger = ledger_.get();
  make_mechanism(MechanismKind::kProjection)->charge(charge);
  ++releases_;

  static obs::Counter& publishes = obs::counter(obs::names::kSessionPublishes);
  publishes.add();
  return release_options(releases_);
}

PublishedGraph PublishingSession::publish(const graph::Graph& g) {
  obs::Span span("session.publish");
  span.attr("release_index", releases_ + 1);
  const RandomProjectionPublisher publisher(begin_release());
  return publisher.publish(g);
}

dp::PrivacyParams PublishingSession::spent() const {
  return spent_after(releases_);
}

double PublishingSession::remaining_epsilon() const {
  return std::max(0.0, options_.total_budget.epsilon - spent().epsilon);
}

}  // namespace sgp::core
