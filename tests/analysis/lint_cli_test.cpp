// Exit-code and usage-error contract of the sgp_lint binary itself. The
// library tests cover rule behavior; these spawn the real tool (via the
// shell, capturing stderr to a file) and pin the CLI surface:
//
//   0  clean tree          1  findings          2  usage error
//
// An unknown --rules id must fail fast with exit 2 and list every valid
// id, so a typo'd CI invocation cannot silently lint nothing; an unknown
// flag exits 2 too.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string stderr_text;
};

// ctest runs each case as its own process, in parallel, so every call
// captures stderr to a file named after its process and its call count.
CliResult run_lint_cli(const std::string& args) {
  static int calls = 0;
  const std::string err_path =
      (std::filesystem::path(::testing::TempDir()) /
       ("sgp_lint_cli_err_" + std::to_string(::getpid()) + "_" +
        std::to_string(++calls) + ".txt"))
          .string();
  const std::string cmd = std::string(SGP_LINT_BIN) + " " + args + " 2> '" +
                          err_path + "' > /dev/null";
  const int status = std::system(cmd.c_str());
  CliResult result;
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  std::ifstream in(err_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  result.stderr_text = buf.str();
  std::filesystem::remove(err_path);
  return result;
}

TEST(LintCliTest, UnknownRuleIdExitsUsageErrorListingValidIds) {
  const CliResult result = run_lint_cli(
      "--root " SGP_LINT_FIXTURE_DIR " --no-baseline --rules R9x");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("unknown rule id: R9x"),
            std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find(
                "valid: R1 R2 R3 R4 R5 R6 R7 R8 R9 R10"),
            std::string::npos)
      << result.stderr_text;
}

TEST(LintCliTest, UnknownFormatExitsUsageError) {
  const CliResult result = run_lint_cli(
      "--root " SGP_LINT_FIXTURE_DIR " --no-baseline --format xml");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("--format"), std::string::npos);
}

TEST(LintCliTest, FindingsExitOne) {
  const CliResult result =
      run_lint_cli("--root " SGP_LINT_FIXTURE_DIR " --no-baseline");
  EXPECT_EQ(result.exit_code, 1) << result.stderr_text;
}

TEST(LintCliTest, RuleFilterStillExitsOneWhenItFires) {
  const CliResult result = run_lint_cli(
      "--root " SGP_LINT_FIXTURE_DIR " --no-baseline --rules R6");
  EXPECT_EQ(result.exit_code, 1) << result.stderr_text;
}

TEST(LintCliTest, ScanSummaryGoesToStderr) {
  const CliResult result =
      run_lint_cli("--root " SGP_LINT_FIXTURE_DIR " --no-baseline");
  EXPECT_NE(result.stderr_text.find("file(s) scanned"), std::string::npos)
      << result.stderr_text;
}

// A misspelt flag used to be ignored: --rulz R1 linted every rule.
TEST(LintCliTest, UnreadFlagExitsUsageError) {
  const CliResult result = run_lint_cli(
      "--root " SGP_LINT_FIXTURE_DIR " --no-baseline --rulz R1");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("--rulz"), std::string::npos)
      << result.stderr_text;
}

// --threads used to start as many threads as it was given. One past the
// bound (util::kMaxThreads) exits 2 and names the bound before any starts.
TEST(LintCliTest, ThreadsAboveTheBoundExitUsageError) {
  const CliResult result = run_lint_cli(
      "--root " SGP_LINT_FIXTURE_DIR " --no-baseline --threads 1025");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("--threads must be at most 1024"),
            std::string::npos)
      << result.stderr_text;
}

}  // namespace
