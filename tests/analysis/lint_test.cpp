// End-to-end tests for the sgp-lint driver: fixture-tree walk, baseline
// round-trip, golden JSON report pin, and report-schema validation. The
// fixture tree (tests/analysis/lint_fixtures/) mirrors the repo layout so
// the path-scoped rules behave exactly as on the real tree.
#include "analysis/lint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/errors.hpp"
#include "util/json.hpp"

namespace sgp::analysis {
namespace {

LintOptions fixture_options() {
  LintOptions opt;
  opt.root = SGP_LINT_FIXTURE_DIR;
  return opt;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spill(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << text;
}

TEST(LintWalkTest, ListsFixtureSourcesSorted) {
  const auto files = list_source_files(SGP_LINT_FIXTURE_DIR);
  const std::vector<std::string> expected = {
      "src/core/bad_header.hpp",
      "src/core/clean.cpp",
      "src/core/clean_header.hpp",
      "src/core/concurrency_violations.cpp",
      "src/core/fault_registry_clean.cpp",
      "src/core/fault_registry_violations.cpp",
      "src/core/privacy_flow_clean.cpp",
      "src/core/privacy_flow_violations.cpp",
      "src/core/span_hygiene_clean.cpp",
      "src/core/span_hygiene_violations.cpp",
      "src/core/violations.cpp",
      "src/dp/params.cpp",
      "src/graph/cycle_a.hpp",
      "src/graph/cycle_b.hpp",
      "src/linalg/bad_inl_use.cpp",
      "src/random/engine.cpp",
      "src/random/kernel_body.inl",
      "src/random/uses_kernel.cpp",
      "src/util/bad_layering.hpp",
      "src/util/thread_owner.cpp",
      "tools/bad_tool.cpp",
      "tools/good_tool.cpp",
  };
  EXPECT_EQ(files, expected);
}

TEST(LintWalkTest, MissingRootThrowsIoError) {
  EXPECT_THROW(list_source_files("/nonexistent/sgp-lint-root"),
               util::IoError);
  EXPECT_THROW(load_source_file(SGP_LINT_FIXTURE_DIR, "nope.cpp"),
               util::IoError);
}

TEST(LintRunTest, FixtureTreeYieldsExpectedFindings) {
  const LintResult result = run_lint(fixture_options());
  EXPECT_EQ(result.files_scanned, 22u);
  EXPECT_EQ(result.suppressed, 0u);
  ASSERT_EQ(result.findings.size(), 23u);
  // Sorted by (file, line, rule, snippet); the clean fixtures contribute
  // nothing, the violating ones contribute exactly their planted sites.
  std::vector<std::pair<std::string, std::string>> got;
  for (const Finding& f : result.findings) got.emplace_back(f.rule, f.snippet);
  const std::vector<std::pair<std::string, std::string>> expected = {
      // src/core/bad_header.hpp
      {"R4", "#pragma once"},
      {"R4", "using namespace"},
      // src/core/concurrency_violations.cpp — one per R7 family
      {"R7", "std::thread"},
      {"R7", ".lock()"},
      {"R7", "sleep_for()"},
      {"R7", "submit()"},
      // src/core/fault_registry_violations.cpp
      {"R9", "io.raed"},
      // src/core/privacy_flow_violations.cpp
      {"R8", "write_published_header"},
      {"R8", "sigma = ..."},
      {"R8", "epsilon_head = ..."},
      {"R8", "ledger_->append"},
      // src/core/span_hygiene_violations.cpp
      {"R10", "ScopedTimer(...)"},
      {"R10", "log_event"},
      // src/core/violations.cpp
      {"R1", "<random>"},
      {"R1", "mt19937"},
      {"R1", "rand"},
      {"R3", "core.unregistered_metric"},
      {"R5", "epsilon = 1.5"},
      {"R2", "std::runtime_error"},
      // src/graph/cycle_b.hpp — the back edge closing the include cycle
      {"R6", "src/graph/cycle_a.hpp"},
      // src/linalg/bad_inl_use.cpp — *.inl escaping src/random/
      {"R6", "random/kernel_body.inl"},
      // src/util/bad_layering.hpp — util reaching up into core
      {"R6", "core/clean_header.hpp"},
      // tools/bad_tool.cpp
      {"R2", "main"},
  };
  EXPECT_EQ(got, expected);
  // Every finding ships a fix-it hint.
  for (const Finding& f : result.findings) {
    EXPECT_FALSE(f.fix.empty()) << f.rule << " " << f.snippet;
  }
}

TEST(LintRunTest, ExcludePrefixesSkipFiles) {
  LintOptions opt = fixture_options();
  opt.exclude_prefixes = {"src/core/"};
  const LintResult result = run_lint(opt);
  EXPECT_EQ(result.files_scanned, 11u);
  // Excluding src/core/ also drops the util→core layering finding: the
  // include target leaves the walked set, so the edge cannot resolve.
  ASSERT_EQ(result.findings.size(), 3u);
  EXPECT_EQ(result.findings[0].file, "src/graph/cycle_b.hpp");
  EXPECT_EQ(result.findings[1].file, "src/linalg/bad_inl_use.cpp");
  EXPECT_EQ(result.findings[2].file, "tools/bad_tool.cpp");
}

TEST(LintRunTest, RuleFilterRestrictsFindings) {
  LintOptions opt = fixture_options();
  opt.rules = {"R1"};
  const LintResult result = run_lint(opt);
  ASSERT_EQ(result.findings.size(), 3u);
  for (const Finding& f : result.findings) EXPECT_EQ(f.rule, "R1");
}

TEST(BaselineTest, FromFindingsSuppressesEverything) {
  LintResult result = run_lint(fixture_options());
  const Baseline baseline = Baseline::from_findings(result.findings);
  EXPECT_FALSE(baseline.empty());
  const std::size_t suppressed = baseline.apply(result.findings);
  EXPECT_EQ(suppressed, 23u);
  EXPECT_TRUE(result.findings.empty());
}

TEST(BaselineTest, RoundTripsThroughDisk) {
  LintResult result = run_lint(fixture_options());
  const std::string path = ::testing::TempDir() + "sgp_lint_baseline.json";
  Baseline::from_findings(result.findings).save(path);
  const Baseline reloaded = Baseline::load(path);
  EXPECT_EQ(reloaded.apply(result.findings), 23u);
  EXPECT_TRUE(result.findings.empty());
  // The serialized form is itself schema-tagged valid JSON.
  const util::JsonValue doc = util::parse_json(slurp(path));
  EXPECT_EQ(doc.find("schema")->as_string(), "sgp-lint-baseline-v1");
}

TEST(BaselineTest, KeyIgnoresLineNumbers) {
  // Edits above a grandfathered site shift its line; the baseline must
  // keep suppressing it.
  Finding f{"R1", "src/x.cpp", 10, "mt19937", "msg", ""};
  const Baseline baseline = Baseline::from_findings({f});
  f.line = 99;
  std::vector<Finding> shifted = {f};
  EXPECT_EQ(baseline.apply(shifted), 1u);
  EXPECT_TRUE(shifted.empty());
}

TEST(BaselineTest, CountsCapSuppression) {
  const Finding f{"R1", "src/x.cpp", 1, "mt19937", "msg", ""};
  const Baseline baseline = Baseline::from_findings({f});  // count = 1
  std::vector<Finding> two = {f, f};
  EXPECT_EQ(baseline.apply(two), 1u);
  ASSERT_EQ(two.size(), 1u);  // the second occurrence is a new violation
}

TEST(BaselineTest, EmptyBaselineSerializesAndSuppressesNothing) {
  const Baseline empty = Baseline::from_findings({});
  EXPECT_TRUE(empty.empty());
  const util::JsonValue doc = util::parse_json(empty.to_json());
  EXPECT_TRUE(doc.find("entries")->as_array().empty());
  std::vector<Finding> fs = {{"R1", "src/x.cpp", 1, "mt19937", "msg", ""}};
  EXPECT_EQ(empty.apply(fs), 0u);
  EXPECT_EQ(fs.size(), 1u);
}

TEST(BaselineTest, LoadRejectsBadInput) {
  const std::string dir = ::testing::TempDir();
  EXPECT_THROW(Baseline::load(dir + "does_not_exist.json"), util::IoError);
  spill(dir + "bad_syntax.json", "{not json");
  EXPECT_THROW(Baseline::load(dir + "bad_syntax.json"), util::ParseError);
  spill(dir + "bad_schema.json", R"({"schema": "v0", "entries": []})");
  EXPECT_THROW(Baseline::load(dir + "bad_schema.json"), util::ParseError);
  spill(dir + "bad_entry.json",
        R"({"schema": "sgp-lint-baseline-v1",
            "entries": [{"rule": "R1", "file": "x", "snippet": "y",
                         "count": 0}]})");
  EXPECT_THROW(Baseline::load(dir + "bad_entry.json"), util::ParseError);
}

TEST(LintReportTest, JsonReportMatchesGolden) {
  // Full-document pin: any change to the report schema, ordering, or the
  // fixture rules must be deliberate enough to regenerate the golden
  // (build/tools/sgp_lint --root tests/analysis/lint_fixtures
  //  --no-baseline --format json --out tests/analysis/golden_report.json).
  const LintResult result = run_lint(fixture_options());
  std::ostringstream out;
  write_lint_report_json(result, fixture_options(), out);
  EXPECT_EQ(out.str(), slurp(SGP_LINT_GOLDEN_REPORT));
}

TEST(LintReportTest, JsonReportValidates) {
  const LintResult result = run_lint(fixture_options());
  std::ostringstream out;
  write_lint_report_json(result, fixture_options(), out);
  const util::JsonValue doc = util::parse_json(out.str());
  EXPECT_EQ(validate_lint_report_json(doc), std::nullopt);
}

TEST(LintReportTest, ValidatorRejectsSchemaViolations) {
  EXPECT_TRUE(validate_lint_report_json(util::parse_json("{}")).has_value());
  EXPECT_TRUE(validate_lint_report_json(util::parse_json("[1]")).has_value());
  const std::string wrong_schema = R"({"schema": "other", "rules": [],
      "files_scanned": 0, "suppressed": 0, "findings": []})";
  EXPECT_TRUE(
      validate_lint_report_json(util::parse_json(wrong_schema)).has_value());
  const std::string bad_line = R"({"schema": "sgp-lint-report-v1",
      "rules": ["R1"], "files_scanned": 1, "suppressed": 0,
      "findings": [{"rule": "R1", "file": "x.cpp", "line": 0,
                    "snippet": "s", "message": "m"}]})";
  EXPECT_TRUE(
      validate_lint_report_json(util::parse_json(bad_line)).has_value());
}

TEST(LintReportTest, TextReportFormat) {
  const LintResult result = run_lint(fixture_options());
  std::ostringstream out;
  write_lint_report_text(result, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("src/core/violations.cpp:5: [R1]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("    fix: "), std::string::npos) << text;
  EXPECT_NE(text.find("23 finding(s), 0 baselined, 22 file(s) scanned"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace sgp::analysis
