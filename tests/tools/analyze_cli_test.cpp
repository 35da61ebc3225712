// Exit-code and usage-error contract of the sgp_analyze binary. The library
// tests cover task math; these spawn the real tool (via the shell, capturing
// both streams to files) and pin the CLI surface:
//
//   0  ok          2  usage error          3  data error
//
// Unknown --task / --mechanism values must fail fast with exit 2 and list
// every valid value (the sgp_lint --rules shape), any flag the mode does
// not read exits 2, and --compare-mechanisms must render the E14 grid from
// a BENCH_E14.json report alone — no release file involved.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/publisher.hpp"
#include "core/serialization.hpp"
#include "graph/graph.hpp"

namespace {

// ctest runs each case as its own process, in parallel; scratch files must
// be per-process or concurrent cases clobber each other's captures.
std::string scratch_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

struct CliResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

CliResult run_analyze_cli(const std::string& args) {
  const std::string out_path = scratch_path("sgp_analyze_cli_out.txt");
  const std::string err_path = scratch_path("sgp_analyze_cli_err.txt");
  const std::string cmd = std::string(SGP_ANALYZE_BIN) + " " + args + " > '" +
                          out_path + "' 2> '" + err_path + "'";
  const int status = std::system(cmd.c_str());
  CliResult result;
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  result.stdout_text = slurp(out_path);
  result.stderr_text = slurp(err_path);
  std::filesystem::remove(out_path);
  std::filesystem::remove(err_path);
  return result;
}

/// A minimal but complete E14 report: 2 mechanisms × 1 generator × 2 ε × 2
/// tasks, every score key present (the same contract sgp_bench_check pins).
std::string write_e14_fixture() {
  const std::string path = scratch_path("BENCH_E14.json");
  std::ofstream out(path, std::ios::binary);
  out << R"({"schema": "sgp-obs-report v1", "id": "E14", "meta": {)"
      << R"("mechanisms": "projection,privgraph", "generators": "sbm", )"
      << R"("epsilons": "1,2", "tasks": "cluster,rank", "delta": 1e-6, )"
      << R"("score.sbm.projection.e1.cluster": 0.11, )"
      << R"("score.sbm.projection.e1.rank": 0.12, )"
      << R"("score.sbm.projection.e2.cluster": 0.21, )"
      << R"("score.sbm.projection.e2.rank": 0.22, )"
      << R"("score.sbm.privgraph.e1.cluster": 0.31, )"
      << R"("score.sbm.privgraph.e1.rank": 0.32, )"
      << R"("score.sbm.privgraph.e2.cluster": 0.41, )"
      << R"("score.sbm.privgraph.e2.rank": 0.42}, )"
      << R"("phases": [], "counters": {}, "gauges": {}})";
  return path;
}

TEST(AnalyzeCliTest, NoModeSelectedPrintsUsage) {
  const CliResult result = run_analyze_cli("");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("--compare-mechanisms"),
            std::string::npos)
      << result.stderr_text;
}

TEST(AnalyzeCliTest, UnknownTaskExitsUsageErrorListingValidTasks) {
  // Task validation runs before the release file is touched, so a typo'd
  // task cannot hide behind a missing-file error.
  const CliResult result =
      run_analyze_cli("--release does_not_exist.bin --task nope");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("unknown task 'nope'"),
            std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("valid: info stats cluster rank"),
            std::string::npos)
      << result.stderr_text;
}

TEST(AnalyzeCliTest, UnknownMechanismExitsUsageErrorListingTheFamily) {
  const CliResult result = run_analyze_cli(
      "--compare-mechanisms does_not_exist.json --mechanism nope");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("unknown mechanism 'nope'"),
            std::string::npos)
      << result.stderr_text;
  EXPECT_NE(
      result.stderr_text.find("valid: projection privgraph node-community"),
      std::string::npos)
      << result.stderr_text;
}

TEST(AnalyzeCliTest, CompareRendersOneScoreColumnPerMechanism) {
  const std::string report = write_e14_fixture();
  const CliResult result =
      run_analyze_cli("--compare-mechanisms '" + report + "'");
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  for (const char* column : {"generator", "task", "epsilon", "projection",
                             "privgraph"}) {
    EXPECT_NE(result.stdout_text.find(column), std::string::npos)
        << "missing column '" << column << "' in:\n"
        << result.stdout_text;
  }
  // Spot-check one full row: sbm/cluster/e1 carries both mechanism scores.
  EXPECT_NE(result.stdout_text.find("0.110"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("0.310"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stderr_text.find("compared 2 mechanism(s)"),
            std::string::npos)
      << result.stderr_text;
}

TEST(AnalyzeCliTest, CompareHonorsMechanismAndTaskFilters) {
  const std::string report = write_e14_fixture();
  const CliResult result = run_analyze_cli("--compare-mechanisms '" + report +
                                           "' --mechanism privgraph "
                                           "--task rank");
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stdout_text.find("projection"), std::string::npos)
      << result.stdout_text;
  EXPECT_EQ(result.stdout_text.find("cluster"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("0.320"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stderr_text.find("compared 1 mechanism(s) over 2"),
            std::string::npos)
      << result.stderr_text;
}

TEST(AnalyzeCliTest, CompareTaskFilterValidatesAgainstTheReportAxes) {
  // In compare mode the valid task set is whatever the report scored — a
  // grid task like "degree" is rejected when the report never ran it.
  const std::string report = write_e14_fixture();
  const CliResult result = run_analyze_cli("--compare-mechanisms '" + report +
                                           "' --task degree");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("unknown task 'degree'"),
            std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("valid: cluster rank"),
            std::string::npos)
      << result.stderr_text;
}

TEST(AnalyzeCliTest, CompareRejectsNonE14ReportsAsDataErrors) {
  const std::string path = scratch_path("BENCH_E7.json");
  std::ofstream(path, std::ios::binary)
      << R"({"schema": "sgp-obs-report v1", "id": "E7", "meta": {}})";
  const CliResult result = run_analyze_cli("--compare-mechanisms '" + path +
                                           "'");
  EXPECT_EQ(result.exit_code, 3) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("not an E14"), std::string::npos)
      << result.stderr_text;
}

// A flag the chosen mode and task do not read exits 2 and is named: the
// typo --tpo used to rank the default top 100, and --clusters was ignored
// by every task but cluster.
TEST(AnalyzeCliTest, UnreadFlagsExitUsageError) {
  const std::string release = scratch_path("sgp_analyze_cli.bin");
  {
    sgp::core::RandomProjectionPublisher::Options opt;
    opt.projection_dim = 2;
    const std::vector<sgp::graph::Edge> edges = {
        {0, 1}, {1, 2}, {2, 3}, {3, 0}};
    const sgp::graph::Graph g = sgp::graph::Graph::from_edges(4, edges);
    sgp::core::save_published_file(
        sgp::core::RandomProjectionPublisher(opt).publish(g), release);
  }
  const struct {
    std::string args;
    const char* named;
  } cases[] = {
      {"--task rank --tpo 5", "--tpo"},
      {"--task info --clusters 4", "--clusters"},
      {"--task rank --mechanism privgraph", "--mechanism"},
      // A malformed value: --top -1 used to print every node, and
      // --trace foo aborted.
      {"--task rank --top -1", "--top"},
      {"--task info --trace foo", "--trace"},
  };
  for (const auto& c : cases) {
    const CliResult result =
        run_analyze_cli("--release '" + release + "' " + c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args << ": " << result.stderr_text;
    EXPECT_NE(result.stderr_text.find(c.named), std::string::npos)
        << c.args << ": " << result.stderr_text;
    EXPECT_TRUE(result.stdout_text.empty()) << c.args;
  }
  const CliResult ok =
      run_analyze_cli("--release '" + release + "' --task rank --top 2");
  EXPECT_EQ(ok.exit_code, 0) << ok.stderr_text;
  std::filesystem::remove(release);
}

}  // namespace
