// One budget front door: every path that charges a release goes through
// Mechanism::charge, so its ledger record carries the (ε, δ, σ,
// sensitivity) of the release header, and it logs one ledger.charge event
// per charge. The paths here are a session publishing in memory, a
// session's begin_release() feeding publish_sharded, and the projection
// mechanism publishing with a ledger; `sgp_publish --ledger --workers 2` is
// covered in tests/tools/publish_cli_test.cpp. Each path runs under the
// default calibration and under the classic one with delta_split = 0.3.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "core/mechanism.hpp"
#include "core/serialization.hpp"
#include "core/session.hpp"
#include "core/sharded_publish.hpp"
#include "core/theory.hpp"
#include "dp/rdp_accountant.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "random/rng.hpp"

namespace sgp::core {
namespace {

struct Calibration {
  bool analytic;
  double delta_split;
};

constexpr Calibration kCalibrations[] = {{true, dp::kDefaultDeltaSplit},
                                         {false, 0.3}};

class ChargeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::reset_all_metrics();
    obs::clear_event_log();
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    base_ = (std::filesystem::path(::testing::TempDir()) /
             ("sgp_charge_" + name))
                .string();
    remove_files();
  }
  void TearDown() override {
    obs::clear_event_log();
    obs::reset_all_metrics();
    obs::set_metrics_enabled(false);
    remove_files();
  }

  void remove_files() const {
    for (const char* suffix : {".ledger", ".edges", ".bin", ".bin.ckpt"}) {
      std::filesystem::remove(base_ + suffix);
    }
  }

  static graph::Graph test_graph() {
    random::Rng rng(11);
    return graph::erdos_renyi(80, 0.1, rng);
  }

  static RandomProjectionPublisher::Options publisher_options(
      const Calibration& c) {
    RandomProjectionPublisher::Options opt;
    opt.projection_dim = 16;
    opt.params = {0.5, 1e-6};
    opt.seed = 5;
    opt.analytic_calibration = c.analytic;
    opt.delta_split = c.delta_split;
    return opt;
  }

  static PublishingSession::Options session_options(const Calibration& c) {
    PublishingSession::Options opt;
    opt.publisher = publisher_options(c);
    opt.total_budget = {10.0, 1e-5};
    return opt;
  }

  static std::size_t charge_events() {
    std::size_t n = 0;
    for (const obs::EventRecord& e : obs::collected_events()) {
      if (e.name == obs::names::kEventLedgerCharge) ++n;
    }
    return n;
  }

  /// The ledger as it reads back from disk, not the writer's memory.
  std::vector<BudgetLedger::Record> ledger_records() const {
    return BudgetLedger(ledger_path()).records();
  }

  std::string ledger_path() const { return base_ + ".ledger"; }

  std::string base_;
};

void expect_record_matches(const BudgetLedger::Record& record,
                           const PublishedGraph& release,
                           const std::string& where) {
  EXPECT_EQ(record.epsilon, release.params.epsilon) << where;
  EXPECT_EQ(record.delta, release.params.delta) << where;
  EXPECT_EQ(record.sigma, release.calibration.sigma) << where;
  EXPECT_EQ(record.sensitivity, release.calibration.sensitivity) << where;
}

std::string label(const Calibration& c) {
  return std::string(c.analytic ? "analytic" : "classic") +
         " split=" + std::to_string(c.delta_split);
}

TEST_F(ChargeTest, CalibrationIsTheFourArgumentCalibration) {
  for (const Calibration& c : kCalibrations) {
    const auto opt = publisher_options(c);
    const NoiseCalibration expected =
        calibrate_noise(opt.projection_dim, opt.params, c.analytic,
                        c.delta_split);
    EXPECT_EQ(opt.calibration().sigma, expected.sigma) << label(c);
    EXPECT_EQ(opt.calibration().sensitivity, expected.sensitivity)
        << label(c);
  }
  // The two settings calibrate differently, so the cases below can tell a
  // record written under the default calibration from the release's own.
  EXPECT_NE(publisher_options(kCalibrations[0]).calibration().sigma,
            publisher_options(kCalibrations[1]).calibration().sigma);
}

TEST_F(ChargeTest, SessionInMemoryRecordsItsReleasesSigma) {
  const graph::Graph g = test_graph();
  for (const Calibration& c : kCalibrations) {
    remove_files();
    obs::clear_event_log();
    PublishingSession session(session_options(c), ledger_path());
    const PublishedGraph first = session.publish(g);
    const PublishedGraph second = session.publish(g);
    const auto records = ledger_records();
    ASSERT_EQ(records.size(), 2u) << label(c);
    expect_record_matches(records[0], first, label(c) + " release 1");
    expect_record_matches(records[1], second, label(c) + " release 2");
    EXPECT_EQ(charge_events(), 2u) << label(c);
  }
}

TEST_F(ChargeTest, SessionBeginReleaseWithPublishShardedRecordsItsSigma) {
  const graph::Graph g = test_graph();
  const std::string edges = base_ + ".edges";
  const std::string out = base_ + ".bin";
  for (const Calibration& c : kCalibrations) {
    remove_files();
    obs::clear_event_log();
    graph::write_edge_list_file(g, edges);
    const graph::EdgeListShardReader reader(edges, graph::IdPolicy::kPreserve);
    PublishingSession session(session_options(c), ledger_path());
    ShardedPublishOptions sopt;
    sopt.publish = session.begin_release();
    sopt.shard_rows = 20;
    (void)publish_sharded(reader, sopt, out);
    const auto records = ledger_records();
    ASSERT_EQ(records.size(), 1u) << label(c);
    expect_record_matches(records[0], load_published_file(out), label(c));
    EXPECT_EQ(charge_events(), 1u) << label(c);
  }
}

TEST_F(ChargeTest, ProjectionMechanismRecordsItsReleasesSigma) {
  const graph::Graph g = test_graph();
  const auto mechanism = make_mechanism(MechanismKind::kProjection);
  for (const Calibration& c : kCalibrations) {
    remove_files();
    obs::clear_event_log();
    BudgetLedger ledger(ledger_path());
    dp::RdpAccountant accountant;
    MechanismOptions options{publisher_options(c)};
    options.ledger = &ledger;
    options.accountant = &accountant;
    const MechanismRelease release = mechanism->publish(g, options);
    ASSERT_TRUE(release.matrix.has_value()) << label(c);
    const auto records = ledger_records();
    ASSERT_EQ(records.size(), 1u) << label(c);
    expect_record_matches(records[0], *release.matrix, label(c));
    EXPECT_EQ(charge_events(), 1u) << label(c);
    // The accountant holds the release's own σ/Δ: one Gaussian entry
    // whose curve matches the record's.
    dp::RdpAccountant expected;
    expected.record_gaussian(records[0].sigma / records[0].sensitivity);
    EXPECT_EQ(accountant.to_dp(1e-5).epsilon, expected.to_dp(1e-5).epsilon)
        << label(c);
  }
}

// The session charges through the projection mechanism, so the two write
// the same record for the same options.
TEST_F(ChargeTest, SessionAndMechanismChargeTheSameRecord) {
  for (const Calibration& c : kCalibrations) {
    remove_files();
    PublishingSession session(session_options(c), ledger_path());
    (void)session.begin_release();
    MechanismOptions options{publisher_options(c)};
    const BudgetLedger::Record direct =
        make_mechanism(MechanismKind::kProjection)->charge(options);
    const auto records = ledger_records();
    ASSERT_EQ(records.size(), 1u) << label(c);
    EXPECT_EQ(records[0].index, 1u);
    EXPECT_EQ(records[0].epsilon, direct.epsilon) << label(c);
    EXPECT_EQ(records[0].delta, direct.delta) << label(c);
    EXPECT_EQ(records[0].sigma, direct.sigma) << label(c);
    EXPECT_EQ(records[0].sensitivity, direct.sensitivity) << label(c);
  }
}

}  // namespace
}  // namespace sgp::core
