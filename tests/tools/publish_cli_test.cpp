// Usage contract of sgp_publish's flags. --threads, --no-resume and
// --io-attempts configure the shard loop, so an in-memory or --streaming
// publish must refuse them with exit 2 (usage) and name the flags that
// select out-of-core publishing, instead of ignoring them. A malformed
// number is a usage error too, and so is any flag the chosen mode does not
// read, in sgp_publish, sgp_stats, sgp_generate and sgp_trace alike.
//
// The --metrics-out report is the one observability schema: every tool's
// report, in every publish mode, passes sgp_bench_check and renders through
// sgp_trace.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "core/serialization.hpp"
#include "util/json.hpp"

namespace {

// ctest runs each case as its own process, in parallel; temporary files must
// be per-process or concurrent cases clobber each other's captures.
std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

struct CliResult {
  int exit_code = -1;
  std::string stderr_text;
};

class PublishCliTest : public testing::Test {
 protected:
  void SetUp() override {
    std::ofstream out(edges_, std::ios::binary);
    out << "0 1\n1 2\n2 3\n3 0\n0 2\n";
  }
  void TearDown() override {
    std::filesystem::remove(edges_);
    std::filesystem::remove(release_);
    std::filesystem::remove(release_ + ".ckpt");
  }

  CliResult publish(const std::string& flags) const {
    return run(std::string(SGP_PUBLISH_BIN) + " --edges '" + edges_ +
               "' --out '" + release_ + "' --dim 2 --epsilon 1 " + flags);
  }

  CliResult stats(const std::string& flags) const {
    return run(std::string(SGP_STATS_BIN) + " --edges '" + edges_ + "' " +
               flags);
  }

  /// Checks `report` with sgp_bench_check, renders it with sgp_trace
  /// --chrome and validates the export; returns the parsed report.
  static sgp::util::JsonValue expect_renders(const std::string& report) {
    const CliResult check = run(std::string(SGP_BENCH_CHECK_BIN) + " '" +
                                report + "'");
    EXPECT_EQ(check.exit_code, 0) << report << ": " << check.stderr_text;
    const std::string chrome = report + ".chrome.json";
    const CliResult trace = run(std::string(SGP_TRACE_BIN) + " --report '" +
                                report + "' --chrome '" + chrome + "'");
    EXPECT_EQ(trace.exit_code, 0) << report << ": " << trace.stderr_text;
    const CliResult valid = run(std::string(SGP_TRACE_BIN) +
                                " --validate-chrome '" + chrome + "'");
    EXPECT_EQ(valid.exit_code, 0) << report << ": " << valid.stderr_text;
    std::filesystem::remove(chrome);
    std::ifstream in(report, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return sgp::util::parse_json(buf.str());
  }

  static CliResult run(const std::string& command) {
    const std::string err_path = temp_path("sgp_publish_cli_err.txt");
    const std::string cmd =
        command + " 2> '" + err_path + "' > /dev/null";
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

  std::string edges_ = temp_path("sgp_publish_cli.edges");
  std::string release_ = temp_path("sgp_publish_cli.bin");
};

TEST_F(PublishCliTest, InMemoryRejectsShardOnlyFlags) {
  for (const char* flag : {"--threads 2", "--no-resume", "--io-attempts 3"}) {
    for (const char* mode : {"", "--streaming"}) {
      const CliResult result =
          publish(std::string(flag) + " " + std::string(mode));
      EXPECT_EQ(result.exit_code, 2) << flag << " " << mode;
      EXPECT_NE(result.stderr_text.find("--shard-rows"), std::string::npos)
          << result.stderr_text;
      EXPECT_NE(result.stderr_text.find("--max-memory-mb"), std::string::npos)
          << result.stderr_text;
      EXPECT_NE(result.stderr_text.find("--workers"), std::string::npos)
          << result.stderr_text;
      EXPECT_FALSE(std::filesystem::exists(release_));
    }
  }
}

// A number flag must parse whole: "2x" used to publish at m = 2, and a
// seed of -1 used to wrap to 2^64 - 1. Seeds take the full unsigned range.
// A negative count used to wrap too (exit 5, with the release and its
// shard log left behind), a mode count of 0 was ignored, --io-attempts 0
// exited 2 only after writing both files, an unknown --projection
// published gaussian, --kernel foo exited 3 and --trace 2 aborted: every
// malformed value exits 2 before any file exists.
TEST_F(PublishCliTest, MalformedNumbersAreUsageErrors) {
  for (const char* flags :
       {"--dim 2x", "--seed 7abc", "--seed -1", "--epsilon 1e",
        "--shard-rows 100 --threads -3", "--workers -1", "--shard-rows 0",
        "--max-memory-mb 0", "--shard-rows 2 --io-attempts 0",
        "--kernel foo", "--projection foo",
        "--projection achliptas", "--trace 2", "--trace foo",
        // One past each bound (util::kMaxThreads, core::kMaxWorkers): the
        // flag used to start that many threads or worker processes.
        "--shard-rows 100 --threads 1025", "--workers 257",
        "--worker --threads 1025"}) {
    const CliResult result = publish(flags);
    EXPECT_EQ(result.exit_code, 2) << flags << ": " << result.stderr_text;
    EXPECT_FALSE(std::filesystem::exists(release_)) << flags;
    EXPECT_FALSE(std::filesystem::exists(release_ + ".ckpt")) << flags;
  }
  EXPECT_EQ(publish("--seed 18446744073709551615").exit_code, 0);
  EXPECT_TRUE(std::filesystem::exists(release_));
}

// Zero workers is the in-process coordinator: with a shard height it
// publishes, and alone it exits 2 instead of publishing in memory.
TEST_F(PublishCliTest, ZeroWorkersNeedsAShardHeight) {
  const CliResult alone = publish("--workers 0");
  EXPECT_EQ(alone.exit_code, 2) << alone.stderr_text;
  EXPECT_NE(alone.stderr_text.find("--workers 0"), std::string::npos)
      << alone.stderr_text;
  EXPECT_FALSE(std::filesystem::exists(release_));
  EXPECT_FALSE(std::filesystem::exists(release_ + ".ckpt"));
  for (const char* height : {"--shard-rows 2", "--max-memory-mb 1"}) {
    const CliResult result = publish(std::string("--workers 0 ") + height);
    EXPECT_EQ(result.exit_code, 0) << height << ": " << result.stderr_text;
    EXPECT_TRUE(std::filesystem::exists(release_)) << height;
    std::filesystem::remove(release_);
  }
}

TEST_F(PublishCliTest, ShardedPathStillTakesThem) {
  const CliResult result =
      publish("--shard-rows 2 --threads 2 --no-resume --io-attempts 2");
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_TRUE(std::filesystem::exists(release_));
}

TEST_F(PublishCliTest, InMemoryWithoutThemStillPublishes) {
  for (const char* mode : {"", "--streaming"}) {
    const CliResult result = publish(mode);
    EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
    EXPECT_TRUE(std::filesystem::exists(release_));
    std::filesystem::remove(release_);
  }
}

// Every accepted flag takes effect, or the tool exits 2 and names it. The
// typo used to publish at the default ε = 1; the others were ignored.
TEST_F(PublishCliTest, UnusedFlagsAreUsageErrors) {
  const struct {
    const char* flags;
    std::vector<std::string> named;
  } cases[] = {
      {"--epsilom 0.1", {"--epsilom"}},
      {"--lease-timeout 5 --worker-fault-spec proc.spawn",
       {"--lease-timeout", "--worker-fault-spec"}},
      {"--shard-rows 2 --lease-timeout 5", {"--lease-timeout"}},
      {"--streaming --shard-rows 2", {"--streaming"}},
      {"--budget-epsilon 5 --budget-delta 1e-5",
       {"--budget-epsilon", "--budget-delta"}},
  };
  for (const auto& c : cases) {
    const CliResult result = publish(c.flags);
    EXPECT_EQ(result.exit_code, 2) << c.flags << ": " << result.stderr_text;
    for (const std::string& name : c.named) {
      EXPECT_NE(result.stderr_text.find(name), std::string::npos)
          << c.flags << ": " << result.stderr_text;
    }
    EXPECT_FALSE(std::filesystem::exists(release_)) << c.flags;
  }
}

// --streaming does nothing under --ledger: the tool must refuse it before
// it charges the ledger, so the ledger file is never even created.
TEST_F(PublishCliTest, StreamingWithLedgerIsRejectedBeforeCharging) {
  const std::string ledger = temp_path("sgp_publish_cli.ledger");
  const CliResult result =
      publish("--streaming --ledger '" + ledger + "' --budget-epsilon 5");
  EXPECT_EQ(result.exit_code, 2) << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("--streaming"), std::string::npos)
      << result.stderr_text;
  EXPECT_FALSE(std::filesystem::exists(release_));
  EXPECT_FALSE(std::filesystem::exists(ledger));
  std::filesystem::remove(ledger);
}

/// The ledger at `path` as it reads back from disk.
std::vector<sgp::core::BudgetLedger::Record> ledger_records(
    const std::string& path) {
  return sgp::core::BudgetLedger(path).records();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A shard log another run left is no proof that the last charged release
// is unfinished. A rerun used to finish release 1 whenever <out>.ckpt
// existed: here g2 (g1 without its last edge) went out under release 1's
// seed with no second record, and a.bin and c.bin differed only in the two
// rows of the removed edge, so the noise cancelled and the edge showed.
TEST_F(PublishCliTest, StaleShardLogGetsAChargeOfItsOwn) {
  const std::string g1 = temp_path("sgp_stale_g1.txt");
  const std::string g2 = temp_path("sgp_stale_g2.txt");
  const std::string a = temp_path("sgp_stale_a.bin");
  const std::string c = temp_path("sgp_stale_c.bin");
  const std::string ledger = temp_path("sgp_stale.ledger");
  ASSERT_EQ(run(std::string(SGP_GENERATE_BIN) +
                " --model ba --nodes 400 --attach 4 --seed 3 --out '" + g1 +
                "'")
                .exit_code,
            0);
  {
    std::string text = slurp(g1);
    while (!text.empty() && text.back() == '\n') text.pop_back();
    std::ofstream(g2, std::ios::binary)
        << text.substr(0, text.rfind('\n') + 1);
  }
  const std::string flags = " --preserve-ids --dim 16 --shard-rows 100";
  const std::string charged =
      flags + " --ledger '" + ledger + "' --budget-epsilon 10";
  const std::string publish_bin = SGP_PUBLISH_BIN;
  ASSERT_EQ(run(publish_bin + " --edges '" + g1 + "' --out '" + a + "'" +
                charged)
                .exit_code,
            0);
  const CliResult killed =
      run("SGP_FAULT_SPEC=io.shard.write:after=1:count=1 " + publish_bin +
          " --edges '" + g2 + "' --out '" + c + "'" + flags);
  ASSERT_NE(killed.exit_code, 0) << killed.stderr_text;
  ASSERT_TRUE(std::filesystem::exists(c + ".ckpt"));
  const CliResult rerun = run(publish_bin + " --edges '" + g2 + "' --out '" +
                              c + "'" + charged);
  ASSERT_EQ(rerun.exit_code, 0) << rerun.stderr_text;

  EXPECT_EQ(ledger_records(ledger).size(), 2u);
  const auto first = sgp::core::load_published_file(a);
  const auto second = sgp::core::load_published_file(c);
  ASSERT_EQ(first.data.rows(), second.data.rows());
  const std::size_t m = first.data.cols();
  std::size_t shared = 0;
  for (std::size_t i = 0; i < first.data.rows(); ++i) {
    const double* x = first.data.data().data() + i * m;
    const double* y = second.data.data().data() + i * m;
    if (std::equal(x, x + m, y)) ++shared;
  }
  EXPECT_EQ(shared, 0u) << "rows shared by two releases of neighbours";
  for (const std::string& path : {g1, g2, a, c, ledger}) {
    std::filesystem::remove(path);
  }
  std::filesystem::remove(c + ".ckpt");
}

// The path the fix keeps: a --ledger --shard-rows run that dies at a shard
// write is finished by a rerun with the same flags, under the record it
// already paid for, with the bytes of an uninterrupted release 1.
TEST_F(PublishCliTest, KilledLedgerShardRunFinishesItsChargedRelease) {
  const std::string ledger = temp_path("sgp_resume.ledger");
  const std::string fresh_ledger = temp_path("sgp_resume_fresh.ledger");
  const std::string reference = temp_path("sgp_resume_reference.bin");
  const std::string flags =
      "--shard-rows 1 --ledger '" + ledger + "' --budget-epsilon 10";
  const CliResult killed =
      run("SGP_FAULT_SPEC=io.shard.write:after=1:count=1 " +
          std::string(SGP_PUBLISH_BIN) + " --edges '" + edges_ +
          "' --out '" + release_ + "' --dim 2 --epsilon 1 " + flags);
  ASSERT_NE(killed.exit_code, 0) << killed.stderr_text;
  ASSERT_TRUE(std::filesystem::exists(release_ + ".ckpt"));
  ASSERT_EQ(ledger_records(ledger).size(), 1u);

  const CliResult rerun = publish(flags);
  ASSERT_EQ(rerun.exit_code, 0) << rerun.stderr_text;
  EXPECT_NE(rerun.stderr_text.find("(1 resumed)"), std::string::npos)
      << rerun.stderr_text;
  EXPECT_EQ(ledger_records(ledger).size(), 1u);

  const CliResult clean =
      run(std::string(SGP_PUBLISH_BIN) + " --edges '" + edges_ +
          "' --out '" + reference +
          "' --dim 2 --epsilon 1 --shard-rows 1 --ledger '" + fresh_ledger +
          "' --budget-epsilon 10");
  ASSERT_EQ(clean.exit_code, 0) << clean.stderr_text;
  EXPECT_EQ(slurp(release_), slurp(reference));
  for (const std::string& path : {ledger, fresh_ledger, reference}) {
    std::filesystem::remove(path);
  }
}

// The charge of a worker publish records the σ and sensitivity the
// release header carries, and the run's report holds one ledger.charge.
TEST_F(PublishCliTest, WorkersLedgerRecordMatchesTheHeader) {
  const std::string ledger = temp_path("sgp_workers.ledger");
  const std::string report = temp_path("sgp_workers_report.json");
  const CliResult result =
      publish("--workers 2 --ledger '" + ledger +
              "' --budget-epsilon 10 --metrics-out '" + report + "'");
  ASSERT_EQ(result.exit_code, 0) << result.stderr_text;
  const auto records = ledger_records(ledger);
  ASSERT_EQ(records.size(), 1u);
  const auto release = sgp::core::load_published_file(release_);
  EXPECT_EQ(records[0].epsilon, release.params.epsilon);
  EXPECT_EQ(records[0].delta, release.params.delta);
  EXPECT_EQ(records[0].sigma, release.calibration.sigma);
  EXPECT_EQ(records[0].sensitivity, release.calibration.sensitivity);

  const sgp::util::JsonValue doc = sgp::util::parse_json(slurp(report));
  std::size_t charges = 0;
  for (const sgp::util::JsonValue& event : doc.find("events")->as_array()) {
    if (event.find("name")->as_string() == "ledger.charge") ++charges;
  }
  EXPECT_EQ(charges, 1u);
  std::filesystem::remove(ledger);
  std::filesystem::remove(report);
}

// A malformed value is a usage error too: --max-degree -1 used to crash
// (SIGSEGV), 0 released a histogram sized by the true max degree, and
// --trace 2 aborted.
TEST_F(PublishCliTest, StatsRejectsUnusedFlags) {
  const CliResult typo = stats("--epsilom 0.5");
  EXPECT_EQ(typo.exit_code, 2) << typo.stderr_text;
  EXPECT_NE(typo.stderr_text.find("--epsilom"), std::string::npos)
      << typo.stderr_text;
  for (const char* flags : {"--max-degree -1", "--max-degree 0", "--trace 2"}) {
    const CliResult bad = stats(flags);
    EXPECT_EQ(bad.exit_code, 2) << flags << ": " << bad.stderr_text;
  }
  const CliResult ok = stats("--epsilon 0.5 --seed 3");
  EXPECT_EQ(ok.exit_code, 0) << ok.stderr_text;
}

// --metrics-out turns span collection on: the single-process report used
// to carry "phases": [] and no spans, and sgp_trace refused its schema.
TEST_F(PublishCliTest, MetricsOutReportCarriesSpansAndRenders) {
  const std::string report = temp_path("sgp_publish_cli_report.json");
  const CliResult result = publish("--metrics-out '" + report + "'");
  ASSERT_EQ(result.exit_code, 0) << result.stderr_text;
  // The stderr span tree stays behind --trace.
  EXPECT_EQ(result.stderr_text.find("--- trace"), std::string::npos)
      << result.stderr_text;
  const sgp::util::JsonValue doc = expect_renders(report);
  bool root = false;
  for (const sgp::util::JsonValue& span : doc.find("spans")->as_array()) {
    root = root || span.find("name")->as_string() == "tool.publish";
  }
  EXPECT_TRUE(root) << "no root span tool.publish";
  std::filesystem::remove(report);
}

// One schema for every report: each publish mode, and the other tools that
// take the observability flags (sgp_analyze reads the release the publishes
// before it wrote).
TEST_F(PublishCliTest, EveryToolReportIsOneSchema) {
  const std::string report = temp_path("sgp_publish_cli_any.json");
  const std::vector<std::string> commands = {
      std::string(SGP_PUBLISH_BIN) + " --edges '" + edges_ + "' --out '" +
          release_ + "' --dim 2",
      std::string(SGP_PUBLISH_BIN) + " --edges '" + edges_ + "' --out '" +
          release_ + "' --dim 2 --shard-rows 2",
      std::string(SGP_PUBLISH_BIN) + " --edges '" + edges_ + "' --out '" +
          release_ + "' --dim 2 --workers 2",
      std::string(SGP_ANALYZE_BIN) + " --release '" + release_ +
          "' --task rank",
      std::string(SGP_STATS_BIN) + " --edges '" + edges_ + "'",
      std::string(SGP_GENERATE_BIN) + " --model er --nodes 20 --out '" +
          edges_ + ".gen'",
  };
  for (const std::string& command : commands) {
    const CliResult result = run(command + " --metrics-out '" + report + "'");
    ASSERT_EQ(result.exit_code, 0) << command << ": " << result.stderr_text;
    const sgp::util::JsonValue doc = expect_renders(report);
    EXPECT_EQ(doc.find("schema")->as_string(), "sgp-obs-report v2")
        << command;
    EXPECT_FALSE(doc.find("spans")->as_array().empty()) << command;
    std::filesystem::remove(report);
  }
  std::filesystem::remove(edges_ + ".gen");
}

// --metrics-format means nothing without --metrics-out: it used to be
// dropped silently; now it is an unread flag. A format other than json or
// prometheus used to write JSON; now it exits 2 and writes nothing.
TEST_F(PublishCliTest, MetricsFormatNeedsMetricsOut) {
  const std::string metrics = temp_path("sgp_publish_cli.prom");
  for (const bool use_stats : {false, true}) {
    for (const std::string& flags :
         {std::string("--metrics-format prometheus"),
          "--metrics-out '" + metrics + "' --metrics-format xml"}) {
      const CliResult result = use_stats ? stats(flags) : publish(flags);
      EXPECT_EQ(result.exit_code, 2) << flags << ": " << result.stderr_text;
      EXPECT_NE(result.stderr_text.find("--metrics-format"),
                std::string::npos)
          << result.stderr_text;
      EXPECT_FALSE(std::filesystem::exists(metrics)) << flags;
    }
  }
  EXPECT_FALSE(std::filesystem::exists(release_));
  const CliResult ok = publish("--metrics-out '" + metrics +
                               "' --metrics-format prometheus");
  EXPECT_EQ(ok.exit_code, 0) << ok.stderr_text;
  std::ifstream in(metrics, std::ios::binary);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line.rfind("# TYPE sgp_", 0), 0u) << first_line;
  std::filesystem::remove(metrics);
}

// A typo, or a flag of another model, used to be ignored: --nodse 50 wrote
// the default 4000-node graph.
TEST_F(PublishCliTest, GenerateRejectsUnreadFlags) {
  const std::string graph = temp_path("sgp_generate_cli.txt");
  const struct {
    const char* flags;
    const char* named;
  } cases[] = {{"--model ba --nodse 50", "--nodse"},
               {"--model ba --p 0.1", "--p"},
               // A malformed value: these used to exit 5 and abort.
               {"--model sbm --communities -1", "--communities"},
               {"--model ba --nodes 50 --trace 2", "--trace"}};
  for (const auto& c : cases) {
    const CliResult result = run(std::string(SGP_GENERATE_BIN) + " " +
                                 c.flags + " --out '" + graph + "'");
    EXPECT_EQ(result.exit_code, 2) << c.flags << ": " << result.stderr_text;
    EXPECT_NE(result.stderr_text.find(c.named), std::string::npos)
        << c.flags << ": " << result.stderr_text;
    EXPECT_FALSE(std::filesystem::exists(graph)) << c.flags;
  }
  const CliResult ok = run(std::string(SGP_GENERATE_BIN) +
                           " --model ba --nodes 50 --attach 2 --out '" +
                           graph + "'");
  EXPECT_EQ(ok.exit_code, 0) << ok.stderr_text;
  std::filesystem::remove(graph);
}

TEST_F(PublishCliTest, TraceRejectsUnreadFlags) {
  const std::string report = temp_path("sgp_trace_cli.json");
  ASSERT_EQ(publish("--metrics-out '" + report + "'").exit_code, 0);
  const std::string trace = std::string(SGP_TRACE_BIN);
  const CliResult typo =
      run(trace + " --report '" + report + "' --summry");
  EXPECT_EQ(typo.exit_code, 2) << typo.stderr_text;
  EXPECT_NE(typo.stderr_text.find("--summry"), std::string::npos)
      << typo.stderr_text;
  // The two modes are exclusive: --validate-chrome reads no report.
  const CliResult both = run(trace + " --validate-chrome '" + report +
                             "' --report '" + report + "'");
  EXPECT_EQ(both.exit_code, 2) << both.stderr_text;
  EXPECT_NE(both.stderr_text.find("--report"), std::string::npos)
      << both.stderr_text;
  const CliResult ok = run(trace + " --report '" + report + "' --summary");
  EXPECT_EQ(ok.exit_code, 0) << ok.stderr_text;
  std::filesystem::remove(report);
}

}  // namespace
