// Product-set scenario engine: one grid definition drives tests, benches,
// and analyst reports.
//
// Two layers:
//
//   1. Axis primitives + PARAMETERIZE/OPTION/PICK macros (after exotracker's
//      test_utils/parameterize.h, SNIPPETS.md §1): an axis is a named list
//      of labeled options; SGP_PICK clauses chain by juxtaposition into the
//      full product set. Test suites that used to hand-roll nested loops
//      (shard×thread matrices, kernel-variant grids, statistical sweeps)
//      declare their axes once and iterate the product; the axis objects
//      stay inspectable, so pin tests can assert exact cell counts.
//
//   2. The standard mechanism grid: {generator × mechanism × (ε, δ) × task}
//      with per-cell deterministic seeds (FNV-1a of the cell label folded
//      into a base seed) and named-axis labels
//      ("generator=sbm/mechanism=privgraph/epsilon=2/task=cluster").
//      Consumed by the tier-1 `scenario` ctest suite, the slow statistical
//      layer, bench_e14_mechanisms, and sgp_analyze --compare-mechanisms.
//
// Budget points of the standard grid come from dp/defaults.hpp
// (kScenarioEpsilons / kScenarioDelta) — privacy policy stays in the DP
// layer (lint rule R5).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mechanism.hpp"
#include "dp/privacy.hpp"
#include "graph/generators.hpp"

namespace sgp::core::scenario {

// --- axis primitives ------------------------------------------------------

template <typename T>
struct AxisOption {
  std::string label;
  T value;
};

/// A named list of labeled options — one dimension of a product set.
template <typename T>
struct Axis {
  std::string name;
  std::vector<AxisOption<T>> options;

  [[nodiscard]] std::size_t size() const { return options.size(); }
};

template <typename T>
class AxisBuilder {
 public:
  explicit AxisBuilder(std::string name) { axis_.name = std::move(name); }

  AxisBuilder& add(std::string label, T value) {
    axis_.options.push_back({std::move(label), std::move(value)});
    return *this;
  }

  [[nodiscard]] Axis<T> build() { return std::move(axis_); }

 private:
  Axis<T> axis_;
};

/// FNV-1a 64-bit over `text` — platform-stable (unlike std::hash), so cell
/// seeds derived from labels reproduce everywhere.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// Deterministic per-cell seed: the base seed and the label hash mixed
/// through a splitmix64 finalizer. Distinct labels give independent seeds;
/// the same (base, label) always gives the same seed.
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t base_seed,
                                      std::string_view label);

/// Joins "axis=option" parts into the canonical "a=x/b=y/..." cell label.
[[nodiscard]] std::string join_labels(
    std::initializer_list<std::string_view> parts);

// --- PARAMETERIZE / OPTION / PICK -----------------------------------------
//
// Declaration mirrors the exotracker harness:
//
//   SGP_PARAMETERIZE(shard_rows_axis, std::size_t, shard_rows,
//       SGP_OPTION(shard_rows, 1);
//       SGP_OPTION(shard_rows, 7);
//       SGP_OPTION(shard_rows, 64);
//   )
//
// Iteration chains one SGP_PICK clause per axis (juxtaposed, innermost body
// runs once per product-set cell — where doctest re-enters the test per
// subcase, gtest bodies iterate in place):
//
//   std::size_t shard_rows;
//   std::size_t threads;
//   SGP_PICK(shard_rows_axis, shard_rows) SGP_PICK(threads_axis, threads) {
//     ...one cell; SGP_PICK_LABEL(shard_rows) names the option...
//   }
//
// The axis object behind a PARAMETERIZE is reachable as sgp_axis_<name>()
// for cell-count pin tests.

#define SGP_PARAMETERIZE(name, type, var, ...)                            \
  inline const ::sgp::core::scenario::Axis<type>& sgp_axis_##name() {     \
    static const ::sgp::core::scenario::Axis<type> sgp_axis_value = [] {  \
      ::sgp::core::scenario::AxisBuilder<type> sgp_builder(#name);        \
      type var{};                                                         \
      (void)var;                                                          \
      __VA_ARGS__                                                         \
      return sgp_builder.build();                                         \
    }();                                                                  \
    return sgp_axis_value;                                                \
  }

/// Registers one option; the stringified value is the option label.
#define SGP_OPTION(var, ...) \
  sgp_builder.add(#__VA_ARGS__, ((var) = (__VA_ARGS__)))

/// Registers one option under an explicit label (for values whose
/// stringification is unreadable, e.g. qualified enumerators).
#define SGP_OPTION_LABELED(var, label, ...) \
  sgp_builder.add((label), ((var) = (__VA_ARGS__)))

/// One product-set clause: binds `var` to each option of `name` in turn.
/// Chain clauses by juxtaposition; the following statement (or block) is
/// the per-cell body.
#define SGP_PICK(name, var)                                            \
  for (const auto& sgp_pick_##var : sgp_axis_##name().options)         \
    if ((var) = sgp_pick_##var.value; true)

/// The label of the option currently bound to `var` (inside SGP_PICK).
#define SGP_PICK_LABEL(var) (sgp_pick_##var.label)

// --- the standard mechanism grid ------------------------------------------

/// Graph families of the standard grid. SBM carries planted ground-truth
/// communities; BA is the heavy-tailed degree counterpoint.
enum class GeneratorKind { kSbm, kBa };

[[nodiscard]] std::string to_string(GeneratorKind kind);
/// Throws util::PreconditionError listing the valid names ("sbm" / "ba").
[[nodiscard]] GeneratorKind parse_generator(const std::string& name);
[[nodiscard]] const std::vector<std::string>& known_generator_names();

/// Analyst tasks a release is scored on. Every score is in [0, 1], higher
/// is better (conductance is reported as 1 − φ).
enum class TaskKind { kCluster, kRank, kDegree, kConductance };

[[nodiscard]] std::string to_string(TaskKind task);
/// Throws util::PreconditionError listing the valid names
/// ("cluster" / "rank" / "degree" / "conductance").
[[nodiscard]] TaskKind parse_task(const std::string& name);
[[nodiscard]] const std::vector<std::string>& known_task_names();

/// Node count of the standard scenario graphs — small enough for the tier-1
/// grid to stay fast, large enough for Louvain to resolve communities.
inline constexpr std::size_t kScenarioNodes = 240;
inline constexpr std::size_t kScenarioProjectionDim = 64;  ///< m of the grid
/// Base seed every cell seed is derived from.
inline constexpr std::uint64_t kScenarioBaseSeed = 20260809;

/// One cell of the {generator × mechanism × (ε, δ) × task} product set.
struct ScenarioCell {
  GeneratorKind generator = GeneratorKind::kSbm;
  MechanismKind mechanism = MechanismKind::kProjection;
  dp::PrivacyParams budget;
  TaskKind task = TaskKind::kCluster;
  std::string label;       ///< "generator=sbm/mechanism=.../epsilon=.../task=..."
  std::uint64_t seed = 0;  ///< cell_seed(base, label)
  std::size_t index = 0;   ///< position in the materialized grid
};

/// Materializes the full standard grid (generators × mechanisms ×
/// dp::kScenarioEpsilons × tasks), labels and seeds included.
[[nodiscard]] std::vector<ScenarioCell> standard_grid(
    std::uint64_t base_seed = kScenarioBaseSeed);

/// The scenario graph of a cell: deterministic in (kind, seed).
[[nodiscard]] graph::PlantedGraph make_scenario_graph(
    GeneratorKind kind, std::uint64_t seed,
    std::size_t num_nodes = kScenarioNodes);

/// MechanismOptions for a cell (budget, seed and kScenarioProjectionDim
/// filled in; ledger/accountant left for the caller to attach).
[[nodiscard]] MechanismOptions cell_options(const ScenarioCell& cell);

/// Scores `release` on `task` against the original graph. Deterministic in
/// (release, task, seed).
[[nodiscard]] double run_task(const MechanismRelease& release, TaskKind task,
                              const graph::PlantedGraph& original,
                              std::uint64_t seed);

/// The non-private baseline for `task` on the same graph — what a lossless
/// release would score. Upper reference for the E14 comparison table.
[[nodiscard]] double reference_score(TaskKind task,
                                     const graph::PlantedGraph& original,
                                     std::uint64_t seed);

/// Canonical byte string of a release (matrix bytes or sorted edge list),
/// used by the determinism tests: equal releases ⇔ equal fingerprints.
[[nodiscard]] std::string release_fingerprint(const MechanismRelease& release);

}  // namespace sgp::core::scenario
