// Tier-1 structural suite over the standard mechanism grid (ctest label:
// scenario): every cell of {generator × mechanism × (ε, δ) × task} publishes
// a valid release, charges the budget ledger exactly once with the cell's
// exact (ε, δ), preserves the node count, reproduces byte-identically under
// its cell seed, and scores its task inside [0, 1]. The statistical layer
// (utility bands) lives in scenario_statistical_test.cpp under the `slow`
// configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "core/mechanism.hpp"
#include "core/scenario.hpp"
#include "dp/defaults.hpp"
#include "dp/rdp_accountant.hpp"
#include "util/errors.hpp"

namespace sgp::core::scenario {
namespace {

std::size_t expected_grid_size() {
  return known_generator_names().size() * known_mechanism_names().size() *
         (sizeof(dp::kScenarioEpsilons) / sizeof(dp::kScenarioEpsilons[0])) *
         known_task_names().size();
}

TEST(ScenarioGrid, MaterializesTheFullProductSet) {
  const auto grid = standard_grid();
  ASSERT_EQ(grid.size(), expected_grid_size());
  ASSERT_GE(known_mechanism_names().size(), 3u);
  ASSERT_GE(known_generator_names().size(), 2u);
  ASSERT_GE(known_task_names().size(), 3u);

  std::set<std::string> labels;
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, i);
    EXPECT_EQ(grid[i].seed, cell_seed(kScenarioBaseSeed, grid[i].label));
    labels.insert(grid[i].label);
    seeds.insert(grid[i].seed);
  }
  EXPECT_EQ(labels.size(), grid.size()) << "cell labels must be unique";
  EXPECT_EQ(seeds.size(), grid.size()) << "cell seeds must be unique";
}

TEST(ScenarioGrid, LabelsCarryEveryAxis) {
  for (const auto& cell : standard_grid()) {
    EXPECT_NE(cell.label.find("generator="), std::string::npos) << cell.label;
    EXPECT_NE(cell.label.find("mechanism=" + to_string(cell.mechanism)),
              std::string::npos)
        << cell.label;
    EXPECT_NE(cell.label.find("epsilon="), std::string::npos) << cell.label;
    EXPECT_NE(cell.label.find("task=" + to_string(cell.task)),
              std::string::npos)
        << cell.label;
    EXPECT_EQ(cell.budget.delta, dp::kScenarioDelta);
  }
}

TEST(ScenarioGrid, GridIsStableAcrossCalls) {
  const auto a = standard_grid();
  const auto b = standard_grid();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].seed, b[i].seed);
  }
}

// The heavyweight per-cell check, one case per grid cell so `ctest -j`
// runs the cells in parallel. The parameter is the cell label, which is
// also the case's ctest name; each cell charges its own ledger file.
std::vector<std::string> grid_labels() {
  std::vector<std::string> labels;
  for (const auto& cell : standard_grid()) labels.push_back(cell.label);
  return labels;
}

class ScenarioGridCell : public testing::TestWithParam<std::string> {};

TEST_P(ScenarioGridCell, ChargesOnceValidatesAndReproduces) {
  const auto grid = standard_grid();
  const std::string& label = GetParam();
  const auto it = std::find_if(grid.begin(), grid.end(),
                               [&](const auto& c) { return c.label == label; });
  ASSERT_NE(it, grid.end());
  const ScenarioCell& cell = *it;
  const std::string ledger_path = testing::TempDir() +
                                  "/sgp_scenario_grid_" +
                                  std::to_string(cell.index) + ".ledger";

  const auto planted = make_scenario_graph(cell.generator, cell.seed);
  ASSERT_EQ(planted.graph.num_nodes(), kScenarioNodes);

  std::remove(ledger_path.c_str());
  BudgetLedger ledger(ledger_path);
  dp::RdpAccountant accountant;
  MechanismOptions options = cell_options(cell);
  options.ledger = &ledger;
  options.accountant = &accountant;

  const auto mechanism = make_mechanism(cell.mechanism);
  const MechanismRelease release = mechanism->publish(planted.graph, options);

  // Budget charged exactly once, with the cell's exact (ε, δ).
  ASSERT_EQ(ledger.size(), 1u);
  const BudgetLedger::Record& record = ledger.records().front();
  EXPECT_EQ(record.index, 1u);
  EXPECT_DOUBLE_EQ(record.epsilon, cell.budget.epsilon);
  EXPECT_DOUBLE_EQ(record.delta, cell.budget.delta);
  EXPECT_GT(record.sigma, 0.0);
  EXPECT_GT(record.sensitivity, 0.0);

  // The accountant saw the release's composition (projection: one
  // Gaussian; community mechanisms: two Laplace phases).
  const std::size_t expected_releases =
      cell.mechanism == MechanismKind::kProjection ? 1u : 2u;
  EXPECT_EQ(accountant.num_releases(), expected_releases);
  const dp::PrivacyParams accounted = accountant.to_dp(cell.budget.delta);
  EXPECT_GT(accounted.epsilon, 0.0);

  // Structural validity.
  EXPECT_TRUE(release.validate());
  EXPECT_EQ(release.kind, cell.mechanism);
  EXPECT_EQ(release.num_nodes, kScenarioNodes);

  // Task scores live in [0, 1], bounded by a sane reference.
  const double score = run_task(release, cell.task, planted, cell.seed);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
  const double reference = reference_score(cell.task, planted, cell.seed);
  EXPECT_GE(reference, 0.0);
  EXPECT_LE(reference, 1.0);

  // Seed determinism: a second publish under the same cell seed is
  // byte-identical (the ledger/accountant are not part of the bytes).
  const MechanismRelease again =
      mechanism->publish(planted.graph, cell_options(cell));
  EXPECT_EQ(release_fingerprint(release), release_fingerprint(again));
  std::remove(ledger_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Standard, ScenarioGridCell,
                         testing::ValuesIn(grid_labels()));

TEST(ScenarioGrid, PublishWorksWithoutLedgerOrAccountant) {
  const auto grid = standard_grid();
  const auto& cell = grid.front();
  const auto planted = make_scenario_graph(cell.generator, cell.seed);
  const auto release =
      make_mechanism(cell.mechanism)->publish(planted.graph,
                                              cell_options(cell));
  EXPECT_TRUE(release.validate());
}

TEST(ScenarioGrid, InvalidBudgetIsRejectedBeforeCharging) {
  const auto grid = standard_grid();
  const auto& cell = grid.front();
  const auto planted = make_scenario_graph(cell.generator, cell.seed);
  MechanismOptions options = cell_options(cell);
  options.params.epsilon = -1.0;
  EXPECT_THROW(
      make_mechanism(cell.mechanism)->publish(planted.graph, options),
      util::PreconditionError);
}

TEST(ScenarioGrid, ParseRoundTripsEveryAxisName) {
  for (const auto& name : known_mechanism_names()) {
    EXPECT_EQ(to_string(parse_mechanism(name)), name);
  }
  for (const auto& name : known_generator_names()) {
    EXPECT_EQ(to_string(parse_generator(name)), name);
  }
  for (const auto& name : known_task_names()) {
    EXPECT_EQ(to_string(parse_task(name)), name);
  }
  EXPECT_THROW(static_cast<void>(parse_mechanism("nope")),
               util::PreconditionError);
  EXPECT_THROW(static_cast<void>(parse_generator("nope")),
               util::PreconditionError);
  EXPECT_THROW(static_cast<void>(parse_task("nope")), util::PreconditionError);
}

}  // namespace
}  // namespace sgp::core::scenario
