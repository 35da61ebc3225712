// Budget-capped repeated publishing.
//
// A provider re-publishing an evolving graph (weekly snapshots, A/B cohorts)
// must stop before the cumulative privacy loss exceeds policy. The session
// checks each release against a total (ε, δ) cap — spent is the tighter of
// classic composition and Rényi DP, from the release count and the one
// calibration — and charges it through Mechanism::charge (core/mechanism.hpp).
//
// Backed by a crash-safe BudgetLedger (core/ledger.hpp), every release is
// durably recorded *before* the artifact is returned, and a session
// re-constructed from the same ledger path after a crash recovers the spent
// budget. A crash can therefore only ever over-count spent ε (a recorded
// release whose artifact was never delivered) — never under-count it, which
// is the failure that would void the (ε, δ) guarantee.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/ledger.hpp"
#include "core/publisher.hpp"
#include "dp/accountant.hpp"  // IWYU pragma: export

namespace sgp::core {

class PublishingSession {
 public:
  struct Options {
    RandomProjectionPublisher::Options publisher;
    dp::PrivacyParams total_budget{10.0, 1e-5};  ///< hard cap for the session
  };

  explicit PublishingSession(Options options);

  /// Durable session: every release is write-ahead recorded in the ledger
  /// at `ledger_path` before the artifact is returned. If the ledger
  /// already holds records (crash recovery), the spent budget is restored
  /// from it. Throws util::LedgerCorruptError if the ledger fails
  /// validation or was written under different per-release parameters.
  PublishingSession(Options options, const std::string& ledger_path);

  /// Publishes `g`, charging the configured per-release budget. Each release
  /// uses fresh randomness (the publisher seed is mixed with the release
  /// index). Throws util::BudgetExhaustedError if the release would push the
  /// spent budget past the cap — the graph is NOT published and nothing is
  /// charged in that case. With a ledger attached, util::IoError from the
  /// append likewise means nothing was published or charged.
  PublishedGraph publish(const graph::Graph& g);

  /// Checks the cap, charges the next release through Mechanism::charge
  /// (write-ahead into the ledger when attached) and returns its per-release
  /// publisher options, seed already mixed with the release index. For
  /// callers that produce the artifact out of process — e.g.
  /// publish_sharded (core/sharded_publish.hpp) — instead of through
  /// publish(). A crash after this call leaves the budget charged
  /// with no artifact delivered: an over-count, the safe direction.
  /// Throws like publish() (budget refusal charges nothing).
  RandomProjectionPublisher::Options begin_release();

  /// Per-release options of an already-charged release `index` (1-based,
  /// <= num_releases()): deterministic, so a crashed out-of-core release
  /// can be finished — or re-emitted byte-identically — without a second
  /// budget charge.
  [[nodiscard]] RandomProjectionPublisher::Options release_options(
      std::uint64_t index) const;

  /// Cumulative (ε, δ) consumed so far, at the session's total δ: the
  /// tighter of sequential composition and Rényi-DP accounting.
  [[nodiscard]] dp::PrivacyParams spent() const;

  /// ε headroom left under the cap (0 when exhausted).
  [[nodiscard]] double remaining_epsilon() const;

  [[nodiscard]] std::size_t num_releases() const { return releases_; }
  [[nodiscard]] const Options& options() const { return options_; }

  [[nodiscard]] bool has_ledger() const { return ledger_ != nullptr; }
  /// The backing ledger, or nullptr for an in-memory session.
  [[nodiscard]] const BudgetLedger* ledger() const { return ledger_.get(); }

 private:
  [[nodiscard]] dp::PrivacyParams spent_after(std::size_t releases) const;

  Options options_;
  NoiseCalibration calibration_;  ///< options_.publisher.calibration()
  std::size_t releases_ = 0;
  std::unique_ptr<BudgetLedger> ledger_;
};

}  // namespace sgp::core
