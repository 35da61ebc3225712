// Incremental lint-cache behavior: cold vs warm runs, single-file
// invalidation, determinism across thread counts, and the file-count
// accounting that backs the "warm is cheaper" guarantee. The cache stores
// per-file findings keyed by content hash; the cross-file R6 graph phase
// is recomputed from cached include summaries every run, so a warm report
// must be byte-identical to a cold one.
#include "analysis/cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/lint.hpp"

namespace fs = std::filesystem;

namespace sgp::analysis {
namespace {

/// A disposable copy of the fixture tree, so tests can mutate files.
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("sgp_lint_cache_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::remove_all(root_);
    fs::copy(SGP_LINT_FIXTURE_DIR, root_, fs::copy_options::recursive);
    cache_path_ = (root_ / ".lint-cache.json").string();
  }

  void TearDown() override { fs::remove_all(root_); }

  LintOptions options(std::size_t threads = 1) {
    LintOptions opt;
    opt.root = root_.string();
    opt.threads = threads;
    opt.use_cache = true;
    opt.cache_path = cache_path_;
    return opt;
  }

  std::string report_of(const LintResult& result, const LintOptions& opt) {
    std::ostringstream out;
    write_lint_report_json(result, opt, out);
    return out.str();
  }

  fs::path root_;
  std::string cache_path_;
};

TEST_F(CacheTest, ColdThenWarmRunsAgree) {
  const LintOptions opt = options();
  const LintResult cold = run_lint(opt);
  EXPECT_EQ(cold.files_relinted, cold.files_scanned);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_TRUE(fs::exists(cache_path_));

  const LintResult warm = run_lint(opt);
  EXPECT_EQ(warm.files_relinted, 0u);
  EXPECT_EQ(warm.cache_hits, warm.files_scanned);
  // Byte-identical reports: the cache must not change what is reported —
  // including the cross-file R6 findings, which are recomputed from the
  // cached include summaries rather than stored.
  EXPECT_EQ(report_of(warm, opt), report_of(cold, opt));
}

TEST_F(CacheTest, WarmRunRelintsAtMostAThirdOfTheTree) {
  // The "≥3× cheaper" guarantee, in deterministic file-count accounting:
  // per-file rule work is proportional to files re-linted, and a warm run
  // on an unchanged tree re-lints nothing at all.
  const LintOptions opt = options();
  const LintResult cold = run_lint(opt);
  const LintResult warm = run_lint(opt);
  ASSERT_GT(cold.files_relinted, 0u);
  EXPECT_LE(warm.files_relinted * 3, cold.files_relinted)
      << "warm run re-linted " << warm.files_relinted << " of "
      << cold.files_relinted << " files — the cache is not saving work";
}

TEST_F(CacheTest, MutatingOneFileRelintsOnlyThatFile) {
  const LintOptions opt = options();
  const LintResult cold = run_lint(opt);

  // Plant a fresh violation in a previously-clean file.
  const fs::path target = root_ / "src/core/clean.cpp";
  {
    std::ofstream out(target, std::ios::binary | std::ios::app);
    ASSERT_TRUE(out.good());
    out << "int bad_rng() { return rand(); }\n";
  }

  const LintResult after = run_lint(opt);
  EXPECT_EQ(after.files_relinted, 1u);
  EXPECT_EQ(after.cache_hits, after.files_scanned - 1);
  EXPECT_EQ(after.findings.size(), cold.findings.size() + 1);
  bool found = false;
  for (const Finding& f : after.findings) {
    found = found || (f.file == "src/core/clean.cpp" && f.rule == "R1");
  }
  EXPECT_TRUE(found) << "the planted rand() call must be (re)found";

  // And the run after the mutation is warm again.
  const LintResult warm = run_lint(opt);
  EXPECT_EQ(warm.files_relinted, 0u);
  EXPECT_EQ(report_of(warm, opt), report_of(after, opt));
}

TEST_F(CacheTest, ReportsAreIdenticalAcrossThreadCounts) {
  const LintOptions serial = options(1);
  const LintResult r1 = run_lint(serial);
  fs::remove(cache_path_);
  const LintOptions pooled = options(8);
  const LintResult r8 = run_lint(pooled);
  EXPECT_EQ(r1.files_scanned, r8.files_scanned);
  EXPECT_EQ(report_of(r1, serial), report_of(r8, pooled));
}

TEST_F(CacheTest, VersionKeyChangeInvalidatesEverything) {
  LintOptions opt = options();
  const LintResult cold = run_lint(opt);
  EXPECT_EQ(cold.files_relinted, cold.files_scanned);
  // A different rule selection is a different engine configuration: the
  // cache must go cold rather than serve findings from other rules.
  opt.rules = {"R1"};
  const LintResult filtered = run_lint(opt);
  EXPECT_EQ(filtered.files_relinted, filtered.files_scanned);
}

TEST_F(CacheTest, CorruptCacheFileLoadsCold) {
  const LintOptions opt = options();
  const LintResult cold = run_lint(opt);
  EXPECT_EQ(cold.files_relinted, cold.files_scanned);
  {
    std::ofstream out(cache_path_, std::ios::binary | std::ios::trunc);
    out << "{not json";
  }
  // Never throws: a broken cache is a cold cache.
  const LintResult result = run_lint(opt);
  EXPECT_EQ(result.files_relinted, result.files_scanned);
  // And the run repaired it.
  const LintResult warm = run_lint(opt);
  EXPECT_EQ(warm.files_relinted, 0u);
}

TEST_F(CacheTest, VanishedFilesDropOutOfTheCache) {
  const LintOptions opt = options();
  const LintResult before = run_lint(opt);
  EXPECT_EQ(before.files_scanned, 22u);
  fs::remove(root_ / "src/core/violations.cpp");
  const LintResult after = run_lint(opt);
  EXPECT_EQ(after.files_scanned, 21u);
  const LintCache reloaded = LintCache::load(
      cache_path_, lint_cache_version_key(opt.rule_options, opt.rules));
  EXPECT_EQ(reloaded.entry_count(), 21u);
}

}  // namespace
}  // namespace sgp::analysis
