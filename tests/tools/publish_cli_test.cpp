// Usage contract of sgp_publish's flags. --threads, --no-resume and
// --io-attempts configure the shard loop, so an in-memory or --streaming
// publish must refuse them with exit 2 (usage) and name the flags that
// select out-of-core publishing, instead of ignoring them. A malformed
// number is a usage error too, and so is any flag the chosen mode does not
// read, in sgp_publish and sgp_stats alike.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  }

  CliResult publish(const std::string& flags) const {
    return run(std::string(SGP_PUBLISH_BIN) + " --edges '" + edges_ +
               "' --out '" + release_ + "' --dim 2 --epsilon 1 " + flags);
  }

  CliResult stats(const std::string& flags) const {
    return run(std::string(SGP_STATS_BIN) + " --edges '" + edges_ + "' " +
               flags);
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
TEST_F(PublishCliTest, MalformedNumbersAreUsageErrors) {
  for (const char* flags :
       {"--dim 2x", "--seed 7abc", "--seed -1", "--epsilon 1e"}) {
    const CliResult result = publish(flags);
    EXPECT_EQ(result.exit_code, 2) << flags << ": " << result.stderr_text;
    EXPECT_FALSE(std::filesystem::exists(release_)) << flags;
  }
  EXPECT_EQ(publish("--seed 18446744073709551615").exit_code, 0);
  EXPECT_TRUE(std::filesystem::exists(release_));
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

TEST_F(PublishCliTest, StatsRejectsUnusedFlags) {
  const CliResult typo = stats("--epsilom 0.5");
  EXPECT_EQ(typo.exit_code, 2) << typo.stderr_text;
  EXPECT_NE(typo.stderr_text.find("--epsilom"), std::string::npos)
      << typo.stderr_text;
  const CliResult ok = stats("--epsilon 0.5 --seed 3");
  EXPECT_EQ(ok.exit_code, 0) << ok.stderr_text;
}

}  // namespace
