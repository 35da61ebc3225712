// The sgp-lint rule set: mechanical enforcement of the repo invariants the
// compiler cannot see. Each rule pattern-matches the comment/string-aware
// token stream (analysis/tokenizer.hpp) — the semantic rules additionally
// use the include/function index (analysis/index.hpp) — and scopes itself
// by root-relative path, so moving a file can change which rules apply —
// deliberately: the invariants are directory contracts.
//
//   R1 rng-discipline    no <random> engines/distributions or C rand()
//                        outside src/random/ — all randomness must flow
//                        through the golden-pinned counter RNG.
//   R2 error-taxonomy    no bare `throw std::*_error` in src/ or tools/
//                        outside util/errors.hpp + util/check.hpp, and
//                        every tool main() must route through run_tool()
//                        (the CLI exit-code contract).
//   R3 metric-registry   every metric/span name literal in src/ or tools/
//                        must appear in src/obs/metric_names.hpp (bench/
//                        and examples/ may add "bench."/"example." names).
//   R4 header-hygiene    headers carry #pragma once and never
//                        `using namespace`.
//   R5 privacy-literals  no non-zero ε/δ/σ floating literals assigned
//                        outside src/dp/ — privacy parameters are policy,
//                        not scatter.
//   R6 include-layering  module includes follow the architecture DAG
//                        (util → {obs,dp,random,linalg,graph} →
//                        {cluster,ranking,core} → {analysis,tools}); no
//                        include cycles; src/random/ kernel internals
//                        (*.inl) stay inside src/random/. Cross-file: runs
//                        in the lint driver's graph phase, not per file.
//   R7 concurrency       no raw std::thread/std::async/manual .lock()
//                        outside src/util/; parallel_for bodies never call
//                        blocking pool APIs; sleeps only in util/retry.
//   R8 privacy-flow      publishing encoders are only called from
//                        functions that visibly receive privacy context
//                        (session/ledger/params argument); ε/δ/σ variables
//                        are initialized from dp/ expressions, not ambient
//                        arithmetic; and mechanism code never hand-rolls a
//                        budget split (privacy value × literal) outside
//                        src/dp/ — use dp::split_budget and friends; and
//                        only Mechanism::charge (and core/ledger.*) calls
//                        append on a ledger-named object.
//   R9 fault-registry    every string literal passed to fault_point() /
//                        arm_fault() appears in util/fault_point_names.hpp.
//   R10 span-hygiene     no discarded Span/ScopedTimer temporaries (RAII
//                        guards must be named); log_event only fires under
//                        an active span/sidecar scope.
#pragma once

#include <string>
#include <vector>

#include "analysis/index.hpp"
#include "analysis/source_file.hpp"
#include "analysis/tokenizer.hpp"

namespace sgp::analysis {

struct Finding {
  std::string rule;     ///< "R1".."R10"
  std::string file;     ///< root-relative path
  int line = 0;         ///< 1-based
  std::string snippet;  ///< the offending token / name
  std::string message;  ///< human-readable diagnostic
  std::string fix;      ///< optional fix-it hint ("" = none)
};

/// Stable ordering for reports and baselines: (file, line, rule, snippet).
[[nodiscard]] bool finding_less(const Finding& a, const Finding& b);

struct RuleOptions {
  /// Canonical names for R3. Defaults (see default_rule_options) to
  /// obs::names::kAllNames.
  std::vector<std::string> canonical_metric_names;
  /// Canonical fault-point names for R9. Defaults to
  /// util::fault_points::kAllFaultPoints.
  std::vector<std::string> canonical_fault_points;
};

[[nodiscard]] RuleOptions default_rule_options();

inline constexpr std::string_view kAllRuleIds[] = {
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10"};

/// Static metadata per rule, in kAllRuleIds order — the SARIF
/// tool.driver.rules table and the CLI's rule listing render from this.
struct RuleInfo {
  std::string_view id;
  std::string_view name;        ///< kebab-case short name
  std::string_view short_desc;  ///< one sentence
};

[[nodiscard]] const std::vector<RuleInfo>& all_rule_infos();

/// Individual rules (exposed for targeted tests). Each appends to `out`.
void rule_rng_discipline(const SourceFile& file,
                         const std::vector<Token>& toks,
                         std::vector<Finding>& out);
void rule_error_taxonomy(const SourceFile& file,
                         const std::vector<Token>& toks,
                         std::vector<Finding>& out);
void rule_metric_registry(const SourceFile& file,
                          const std::vector<Token>& toks,
                          const RuleOptions& opt, std::vector<Finding>& out);
void rule_header_hygiene(const SourceFile& file,
                         const std::vector<Token>& toks,
                         std::vector<Finding>& out);
void rule_privacy_literals(const SourceFile& file,
                           const std::vector<Token>& toks,
                           std::vector<Finding>& out);

/// Semantic rules R7–R10 (R6 lives in analysis/include_graph.hpp because
/// it needs the whole file set). Defined in rule_*.cpp.
void rule_concurrency(const SourceFile& file, const FileIndex& index,
                      std::vector<Finding>& out);
void rule_privacy_flow(const SourceFile& file, const FileIndex& index,
                       std::vector<Finding>& out);
void rule_fault_registry(const SourceFile& file, const FileIndex& index,
                         const RuleOptions& opt, std::vector<Finding>& out);
void rule_span_hygiene(const SourceFile& file, const FileIndex& index,
                       std::vector<Finding>& out);

/// Builds the file index and runs every per-file rule whose id is in
/// `rule_ids` (empty = all). R6 is cross-file and therefore absent here —
/// the lint driver runs it over all files' include summaries. Returns
/// findings sorted by finding_less.
[[nodiscard]] std::vector<Finding> run_rules(
    const SourceFile& file, const RuleOptions& opt,
    const std::vector<std::string>& rule_ids = {});

/// Same, but also hands back the file's index so the caller (the lint
/// driver) can feed the include summary to the R6 graph phase without
/// re-tokenizing.
[[nodiscard]] std::vector<Finding> run_rules_indexed(
    const SourceFile& file, const RuleOptions& opt,
    const std::vector<std::string>& rule_ids, FileIndex& index_out);

}  // namespace sgp::analysis
