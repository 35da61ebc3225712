// Process-level chaos suite for the distributed coordinator/worker publish
// (core/distributed_publish.hpp). Real worker processes are spawned from
// the sgp_publish binary (SGP_PUBLISH_BIN) and killed mid-shard via the
// proc.worker.exit fault point; the invariants under test:
//   1. Byte-identity is failure-proof: whatever workers die, the assembled
//      release equals the pinned golden file (and thus every other path).
//   2. Every lost lease is reclaimed — observable in the result counters
//      and the publish.leases_reclaimed metric — and the work is salvaged,
//      reassigned, or computed in-process; the run always completes.
//   3. The privacy ledger is charged exactly once per release no matter
//      how many workers died while producing it.
//   4. Degradation is total: unspawnable or always-dying workers reduce to
//      a correct single-process publish.
// The suite runs in the default ctest pass and under `ctest -L chaos`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/distributed_publish.hpp"
#include "obs/aggregate.hpp"
#include "core/serialization.hpp"
#include "core/session.hpp"
#include "core/sharded_publish.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "random/rng.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"

namespace sgp::core {
namespace {

const std::string kEdgesPath =
    std::string(SGP_GOLDEN_DIR) + "/graph_n24.edges";
const std::string kReleasePath =
    std::string(SGP_GOLDEN_DIR) + "/release_n24_m8.bin";
const std::string kPublishBin = SGP_PUBLISH_BIN;

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class DistributedChaosTest : public testing::Test {
 protected:
  void SetUp() override {
    util::disarm_all_faults();
    const std::string name =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    // TempDir() may or may not end in a separator; go through
    // std::filesystem::path so the built paths compare equal to what
    // directory_iterator yields (a double slash would defeat cleanup and
    // leak lease/ledger files into the next run).
    const std::filesystem::path tmp(testing::TempDir());
    stem_ = "sgp_dist_" + name;
    out_path_ = (tmp / (stem_ + ".bin")).string();
    ledger_path_ = (tmp / (stem_ + ".ledger")).string();
    cleanup();
  }
  void TearDown() override {
    util::disarm_all_faults();
    cleanup();
  }
  void cleanup() {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(
             testing::TempDir(), ec)) {
      if (entry.path().filename().string().rfind(stem_, 0) == 0) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }

  /// The golden run's options (tests/integration/golden_release_test.cpp):
  /// 24 nodes, m=8, seed 4321 — sliced into 6 shards of 4 rows.
  static DistributedPublishOptions options(std::size_t workers) {
    DistributedPublishOptions opt;
    opt.sharded.publish.projection_dim = 8;
    opt.sharded.publish.seed = 4321;
    opt.sharded.shard_rows = 4;
    opt.sharded.threads = 2;
    opt.workers = workers;
    opt.worker_program = kPublishBin;
    opt.edges_path = kEdgesPath;
    opt.id_policy = graph::IdPolicy::kPreserve;
    opt.lease_timeout_seconds = 60.0;  // never trips in these tests
    opt.poll_interval_seconds = 0.005;
    return opt;
  }

  /// No stray protocol files may outlive a successful publish: nothing but
  /// the release itself — no log, side file, temp file or progress file of
  /// any run — carries the release's name.
  void expect_no_side_files() const {
    EXPECT_EQ(files_named_after_release(), std::vector<std::string>{});
  }

  /// Names of the files next to the release that start with its name + ".".
  std::vector<std::string> files_named_after_release() const {
    const std::string prefix =
        std::filesystem::path(out_path_).filename().string() + ".";
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(out_path_).parent_path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0) names.push_back(name);
    }
    return names;
  }

  /// Runs the coordinator with no worker program until `point` fires on
  /// its (after + 1)-th hit; the release and its log stay behind.
  void crash_in_process(const char* point, std::size_t after,
                        const DistributedPublishOptions& opt) const {
    graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
    util::arm_fault(point, {.after = after});
    EXPECT_THROW(publish_distributed(reader, opt, out_path_), util::IoError);
    util::disarm_all_faults();
    EXPECT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));
  }

  /// The golden options with no worker program: every shard in-process.
  static DistributedPublishOptions in_process() {
    auto opt = options(/*workers=*/2);
    opt.worker_program.clear();
    return opt;
  }

  std::string stem_;
  std::string out_path_;
  std::string ledger_path_;
};

/// Bytes of one 4-row, m = 8 shard of the golden release.
constexpr std::size_t kShardBytes = 4 * 8 * sizeof(double);

TEST_F(DistributedChaosTest, CleanRunIsByteIdenticalToGolden) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  const auto result =
      publish_distributed(reader, options(/*workers=*/2), out_path_);
  EXPECT_EQ(result.shards_total, 6u);
  EXPECT_EQ(result.workers_lost, 0u);
  EXPECT_EQ(result.leases_reclaimed, 0u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, WorkerKilledAtShardBoundaryIsReclaimed) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto opt = options(/*workers=*/2);
  // Two proc.worker.exit hits per shard (loop top, post-payload): after=2
  // kills worker 0 at the top of its second shard — one shard delivered,
  // the rest of its lease reclaimed and reassigned to generation 1.
  opt.worker_env[0] = {{"SGP_FAULT_SPEC", "proc.worker.exit:after=2:count=1"}};
  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_GE(result.workers_lost, 1u);
  EXPECT_GE(result.leases_reclaimed, 1u);
  EXPECT_GE(result.workers_spawned, 3u);  // 2 initial + >=1 replacement
  EXPECT_EQ(result.shards_inprocess, 0u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath))
      << "byte drift after mid-shard worker kill";
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, PayloadCommittedBeforeDeathIsSalvaged) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto opt = options(/*workers=*/2);
  // after=1 fires between the payload rename and the done note: the shard's
  // bytes are already committed, so the coordinator must verify and salvage
  // them rather than recompute.
  opt.worker_env[0] = {{"SGP_FAULT_SPEC", "proc.worker.exit:after=1:count=1"}};
  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_GE(result.workers_lost, 1u);
  EXPECT_GE(result.leases_reclaimed, 1u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, EveryWorkerKilledStillCompletes) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto opt = options(/*workers=*/3);
  for (std::size_t w = 0; w < 3; ++w) {
    opt.worker_env[w] = {{"SGP_FAULT_SPEC", "proc.worker.exit"}};
  }
  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_GE(result.workers_lost, 3u);
  EXPECT_GE(result.leases_reclaimed, 6u);  // every shard lost at least once
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, UnspawnableWorkersDegradeToInProcess) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto opt = options(/*workers=*/2);
  opt.worker_program = "/no/such/binary/sgp_publish";
  opt.retry.max_attempts = 2;  // keep the 127-exit churn short
  opt.retry.initial_backoff_seconds = 0.001;
  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_EQ(result.shards_inprocess, result.shards_total);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath))
      << "in-process fallback must still produce the exact release";
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, EmptyWorkerProgramRunsFullyInProcess) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto opt = options(/*workers=*/4);
  opt.worker_program.clear();
  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_EQ(result.workers_spawned, 0u);
  EXPECT_EQ(result.shards_inprocess, result.shards_total);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

// A coordinator crash with real workers: the release holds the shards it
// appended and logged, and the rerun keeps exactly that prefix.
TEST_F(DistributedChaosTest, InterruptedFillResumesFromShardLog) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  const auto opt = options(/*workers=*/2);

  // The fourth append dies: shards 0-2 are in the release and logged.
  util::arm_fault("io.shard.write", {.after = 3});
  EXPECT_THROW(publish_distributed(reader, opt, out_path_), util::IoError);
  util::disarm_all_faults();
  EXPECT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_EQ(result.shards_resumed, 3u);
  EXPECT_EQ(result.workers_lost, 0u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, LedgerChargedExactlyOnceDespiteWorkerDeath) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto opt = options(/*workers=*/2);
  opt.worker_env[0] = {{"SGP_FAULT_SPEC", "proc.worker.exit:after=2:count=1"}};

  PublishingSession::Options sopt;
  sopt.publisher = opt.sharded.publish;
  sopt.total_budget = {10.0, 1e-5};
  {
    PublishingSession session(sopt, ledger_path_);
    opt.sharded.publish = session.begin_release();
    const auto result = publish_distributed(reader, opt, out_path_);
    EXPECT_GE(result.leases_reclaimed, 1u);
  }
  // Reload the ledger cold: exactly one charged release, regardless of how
  // many worker processes died while producing it.
  PublishingSession reloaded(sopt, ledger_path_);
  ASSERT_EQ(reloaded.num_releases(), 1u);

  // A session release mixes the release index into the seed, so the bytes
  // differ from the session-less golden by design; the invariant is that
  // the chaotic distributed run equals the deterministic in-memory release
  // for the SAME charged index.
  const graph::Graph g =
      graph::read_edge_list_file(kEdgesPath, graph::IdPolicy::kPreserve);
  std::ostringstream ref(std::ios::binary);
  publish_to_stream(g, reloaded.release_options(1), ref);
  EXPECT_EQ(file_bytes(out_path_), ref.str())
      << "distributed release drifted from the in-memory session release";
}

// A session draws each release's seed with splitmix64, so about half of
// them are at or above 2^63. The coordinator hands the seed to its workers
// as --seed, which must parse the full unsigned range: otherwise every
// worker exits with a usage error and the release silently falls back to
// in-process compute. Seed 7's second release is one such seed.
TEST_F(DistributedChaosTest, SecondSessionReleaseRunsOnWorkers) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto opt = options(/*workers=*/2);
  PublishingSession::Options sopt;
  sopt.publisher = opt.sharded.publish;
  sopt.publisher.seed = 7;
  sopt.total_budget = {10.0, 1e-5};
  PublishingSession session(sopt, ledger_path_);
  (void)session.begin_release();
  opt.sharded.publish = session.begin_release();
  ASSERT_GE(opt.sharded.publish.seed, std::uint64_t{1} << 63);

  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_EQ(result.workers_lost, 0u);
  EXPECT_EQ(result.shards_inprocess, 0u);
  const graph::Graph g =
      graph::read_edge_list_file(kEdgesPath, graph::IdPolicy::kPreserve);
  std::ostringstream ref(std::ios::binary);
  publish_to_stream(g, session.release_options(2), ref);
  EXPECT_EQ(file_bytes(out_path_), ref.str());
  expect_no_side_files();
}

// The acceptance scenario end to end through the CLI: `--workers 4` with a
// fault spec that kills a worker mid-shard must exit 0, write the exact
// golden bytes, and report publish.leases_reclaimed >= 1 in --metrics-out.
TEST_F(DistributedChaosTest, CliWorkersSurviveChaosEndToEnd) {
  const std::string metrics_path = out_path_ + ".metrics.json";
  std::ostringstream cmd;
  cmd << kPublishBin << " --edges " << kEdgesPath << " --out " << out_path_
      << " --dim 8 --seed 4321 --preserve-ids --shard-rows 4"
      << " --workers 4 --worker-fault-spec proc.worker.exit:after=2:count=1"
      << " --metrics-out " << metrics_path << " 2>/dev/null";
  const int rc = std::system(cmd.str().c_str());
  ASSERT_EQ(rc, 0) << "sgp_publish --workers failed";

  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath))
      << "CLI distributed release drifted from the golden bytes";

  const util::JsonValue report = util::parse_json(file_bytes(metrics_path));
  const util::JsonValue* counters = report.find("metrics");
  ASSERT_NE(counters, nullptr);
  counters = counters->find("counters");
  ASSERT_NE(counters, nullptr);
  const util::JsonValue* reclaimed = counters->find("publish.leases_reclaimed");
  ASSERT_NE(reclaimed, nullptr);
  EXPECT_GE(reclaimed->as_number(), 1.0);
  const util::JsonValue* shards = counters->find("publish.shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->as_number(), 6.0);
}

// The observability-plane acceptance scenario: a `--workers 4` CLI run with
// one worker SIGKILLed mid-shard must leave a merged "sgp-obs-report v2"
// whose counters equal a single-process run's totals (modulo retry/reclaim
// metrics), whose span tree holds every committed shard exactly once under
// the release trace id, and whose sgp_trace Chrome export passes the
// structural validator. Sidecars are consumed by the merge — no .obs.*
// files may survive a successful publish.
TEST_F(DistributedChaosTest, ObsPlaneSurvivesWorkerKillAndMerges) {
  const std::string merged_path = out_path_ + ".obs-merged.json";
  const std::string base_out = out_path_ + ".base.bin";
  const std::string base_metrics = out_path_ + ".base.json";
  const std::string chrome_path = out_path_ + ".chrome.json";

  std::ostringstream cmd;
  cmd << kPublishBin << " --edges " << kEdgesPath << " --out " << out_path_
      << " --dim 8 --seed 4321 --preserve-ids --shard-rows 4 --threads 2"
      << " --workers 4 --worker-fault-spec proc.worker.exit:after=2:count=1"
      << " --metrics-out " << merged_path << " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.str().c_str()), 0);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));

  // The single-process baseline over the same shard plan: the work counters
  // (shards sliced, cells released) must agree exactly with the chaotic
  // distributed run — instrumentation sits on the shared compute path.
  std::ostringstream base_cmd;
  base_cmd << kPublishBin << " --edges " << kEdgesPath << " --out " << base_out
           << " --dim 8 --seed 4321 --preserve-ids --shard-rows 4"
           << " --metrics-out " << base_metrics << " 2>/dev/null";
  ASSERT_EQ(std::system(base_cmd.str().c_str()), 0);

  const util::JsonValue merged = util::parse_json(file_bytes(merged_path));
  const util::JsonValue base = util::parse_json(file_bytes(base_metrics));
  ASSERT_EQ(obs::validate_report_v2_json(merged), std::nullopt);
  EXPECT_EQ(merged.find("schema")->as_string(), "sgp-obs-report v2");
  const std::string trace_id = merged.find("trace_id")->as_string();
  EXPECT_EQ(trace_id.size(), 16u);

  const util::JsonValue* merged_counters =
      merged.find("metrics")->find("counters");
  const util::JsonValue* base_counters = base.find("metrics")->find("counters");
  ASSERT_NE(merged_counters, nullptr);
  ASSERT_NE(base_counters, nullptr);
  for (const std::string name : {"publish.shards", "publish.cells"}) {
    const util::JsonValue* m = merged_counters->find(name);
    const util::JsonValue* b = base_counters->find(name);
    ASSERT_NE(m, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(m->as_number(), b->as_number())
        << name << " drifted between distributed and single-process runs";
  }
  EXPECT_EQ(merged_counters->find("publish.shards")->as_number(), 6.0);
  EXPECT_EQ(merged_counters->find("publish.cells")->as_number(), 192.0);
  const util::JsonValue* reclaimed =
      merged_counters->find("publish.leases_reclaimed");
  ASSERT_NE(reclaimed, nullptr);
  EXPECT_GE(reclaimed->as_number(), 1.0);

  // Every committed shard appears exactly once in the merged span tree.
  std::vector<std::string> shard_attrs;
  const std::function<void(const util::JsonValue&)> walk =
      [&](const util::JsonValue& span) {
        if (span.find("name")->as_string() == "publish.shard") {
          const util::JsonValue* attrs = span.find("attrs");
          const util::JsonValue* shard =
              attrs == nullptr ? nullptr : attrs->find("shard");
          ASSERT_NE(shard, nullptr);
          shard_attrs.push_back(shard->as_string());
        }
        const util::JsonValue* children = span.find("children");
        if (children != nullptr) {
          for (const util::JsonValue& child : children->as_array()) {
            walk(child);
          }
        }
      };
  for (const util::JsonValue& root : merged.find("spans")->as_array()) {
    walk(root);
  }
  std::sort(shard_attrs.begin(), shard_attrs.end());
  EXPECT_EQ(shard_attrs,
            (std::vector<std::string>{"0", "1", "2", "3", "4", "5"}));

  // The killed worker's sidecar ends at its last durable record, so the
  // merged stream must contain an unclean exit and the reclaim that
  // followed.
  bool saw_unclean_exit = false;
  bool saw_reclaim = false;
  for (const util::JsonValue& e : merged.find("events")->as_array()) {
    const std::string name = e.find("name")->as_string();
    if (name == "lease.reclaimed") saw_reclaim = true;
    if (name == "worker.exit") {
      const util::JsonValue* clean = e.find("fields")->find("clean");
      if (clean != nullptr && clean->as_string() == "0") {
        saw_unclean_exit = true;
      }
    }
  }
  EXPECT_TRUE(saw_unclean_exit);
  EXPECT_TRUE(saw_reclaim);

  // Sidecars were consumed by the successful merge. Only this test's own
  // files are checked — TempDir is shared with concurrently running suites.
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(out_path_).parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(stem_, 0) != 0) continue;
    EXPECT_EQ(name.find(".obs."), std::string::npos)
        << "leftover sidecar: " << entry.path();
  }

  // sgp_trace renders the report: Chrome export validates and the summary
  // names the reclaim gap.
  const std::string trace_bin = SGP_TRACE_BIN;
  std::ostringstream trace_cmd;
  trace_cmd << trace_bin << " --report " << merged_path << " --chrome "
            << chrome_path << " --summary > " << out_path_
            << ".summary.txt 2>/dev/null";
  ASSERT_EQ(std::system(trace_cmd.str().c_str()), 0);
  std::ostringstream validate_cmd;
  validate_cmd << trace_bin << " --validate-chrome " << chrome_path
               << " 2>/dev/null";
  EXPECT_EQ(std::system(validate_cmd.str().c_str()), 0);
  const std::string summary = file_bytes(out_path_ + ".summary.txt");
  EXPECT_NE(summary.find("trace " + trace_id), std::string::npos);
  EXPECT_NE(summary.find("reclaim"), std::string::npos);
  EXPECT_NE(summary.find("shard timeline"), std::string::npos);
}

// Same CLI scenario with a budget ledger attached: the release must be
// charged exactly once no matter how many workers died, and the bytes must
// equal the in-memory release for that charged index (a ledger-backed run
// mixes the release index into the seed, so the session-less golden does
// not apply).
TEST_F(DistributedChaosTest, CliLedgerChargedExactlyOnceUnderChaos) {
  std::ostringstream cmd;
  cmd << kPublishBin << " --edges " << kEdgesPath << " --out " << out_path_
      << " --dim 8 --seed 4321 --preserve-ids --shard-rows 4"
      << " --workers 4 --worker-fault-spec proc.worker.exit:after=2:count=1"
      << " --ledger " << ledger_path_ << " --budget-epsilon 10"
      << " 2>/dev/null";
  const int rc = std::system(cmd.str().c_str());
  ASSERT_EQ(rc, 0) << "sgp_publish --workers --ledger failed";

  PublishingSession::Options sopt;
  sopt.publisher.projection_dim = 8;
  sopt.publisher.seed = 4321;
  sopt.total_budget = {10.0, 1e-5};
  PublishingSession session(sopt, ledger_path_);
  ASSERT_EQ(session.num_releases(), 1u) << "budget charged more than once";

  const graph::Graph g =
      graph::read_edge_list_file(kEdgesPath, graph::IdPolicy::kPreserve);
  std::ostringstream ref(std::ios::binary);
  publish_to_stream(g, session.release_options(1), ref);
  EXPECT_EQ(file_bytes(out_path_), ref.str());
}

// The single-process resume scenarios of sharded_publish_test.cpp, through
// the coordinator with no worker program: one shard log, one resume rule.
TEST_F(DistributedChaosTest, InProcessResumesAfterCrashAtShardWrite) {
  crash_in_process("io.shard.write", 2, in_process());
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  const auto result = publish_distributed(reader, in_process(), out_path_);
  EXPECT_EQ(result.shards_resumed, 2u);
  EXPECT_EQ(result.shards_inprocess, 4u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, InProcessResumesAfterCrashBeforeRecord) {
  // Shard 2's rows reach the release but its record does not: the rerun
  // distrusts the unlogged tail and redoes exactly that shard.
  crash_in_process("io.shard.checkpoint", 2, in_process());
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  const auto result = publish_distributed(reader, in_process(), out_path_);
  EXPECT_EQ(result.shards_resumed, 2u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, InProcessIgnoresLogOfOtherOptions) {
  auto stale = in_process();
  stale.sharded.publish.seed = 99;
  crash_in_process("io.shard.write", 2, stale);
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  const auto result = publish_distributed(reader, in_process(), out_path_);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

// The log names its input: rerun over another edge list with the same
// node count, the coordinator starts from shard 0 instead of keeping the
// prefix the old list produced.
TEST_F(DistributedChaosTest, InProcessIgnoresLogOfAnotherEdgeList) {
  const std::string edges =
      (std::filesystem::path(testing::TempDir()) / (stem_ + ".edges"))
          .string();
  std::filesystem::copy_file(kEdgesPath, edges,
                             std::filesystem::copy_options::overwrite_existing);
  {
    graph::EdgeListShardReader reader(edges, graph::IdPolicy::kPreserve);
    util::arm_fault("io.shard.write", {.after = 2});
    EXPECT_THROW(publish_distributed(reader, in_process(), out_path_),
                 util::IoError);
    util::disarm_all_faults();
  }
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  random::Rng rng(5);
  const graph::Graph other = graph::barabasi_albert(24, 2, rng);
  graph::write_edge_list_file(other, edges);
  graph::EdgeListShardReader reader(edges, graph::IdPolicy::kPreserve);
  ASSERT_EQ(reader.num_nodes(), 24u);
  const auto result = publish_distributed(reader, in_process(), out_path_);
  EXPECT_EQ(result.shards_resumed, 0u);
  std::ostringstream expected(std::ios::binary);
  publish_to_stream(
      graph::read_edge_list_file(edges, graph::IdPolicy::kPreserve),
      in_process().sharded.publish, expected);
  EXPECT_EQ(file_bytes(out_path_), expected.str());
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, InProcessResumeDisabledStartsFresh) {
  crash_in_process("io.shard.write", 2, in_process());
  auto opt = in_process();
  opt.sharded.resume = false;
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(result.shards_inprocess, 6u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

// The release must still hold every byte the log vouches for, under this
// run's header; a file cut short or replaced is not trusted at all.
TEST_F(DistributedChaosTest, InProcessDiscardsLogOfReleaseCutShort) {
  crash_in_process("io.shard.write", 3, in_process());
  const std::size_t golden = file_bytes(kReleasePath).size();
  const std::size_t header = golden - 6 * kShardBytes;
  // The file lost part of shard 1's rows; shard 0 alone is still there.
  std::filesystem::resize_file(out_path_, header + kShardBytes + 8);
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  const auto result = publish_distributed(reader, in_process(), out_path_);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

TEST_F(DistributedChaosTest, InProcessDiscardsLogOfReplacedRelease) {
  const graph::Graph g =
      graph::read_edge_list_file(kEdgesPath, graph::IdPolicy::kPreserve);
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto replace_release = [&](const DistributedPublishOptions& other,
                             std::size_t keep_bytes) {
    std::ostringstream bytes(std::ios::binary);
    publish_to_stream(g, other.sharded.publish, bytes);
    std::ofstream(out_path_, std::ios::binary | std::ios::trunc)
        << bytes.str().substr(0, keep_bytes);
  };
  const std::size_t header = file_bytes(kReleasePath).size() - 6 * kShardBytes;

  // Another seed's release: the same header, cut to cover one shard.
  auto other_seed = in_process();
  other_seed.sharded.publish.seed = 99;
  crash_in_process("io.shard.write", 3, in_process());
  replace_release(other_seed, header + kShardBytes);
  auto result = publish_distributed(reader, in_process(), out_path_);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));

  // Another ε's whole release: long enough, but under another header.
  auto other_epsilon = in_process();
  other_epsilon.sharded.publish.params.epsilon = 8.0;
  crash_in_process("io.shard.write", 3, in_process());
  replace_release(other_epsilon, std::string::npos);
  result = publish_distributed(reader, in_process(), out_path_);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

// One release from both sources: slot 0 has a one-generation budget and
// its only worker dies at its first shard, so the coordinator computes
// slot 0's shards itself while slot 1's worker delivers the others.
TEST_F(DistributedChaosTest, WorkerAndCoordinatorShardsMixInOneRelease) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto opt = options(/*workers=*/2);
  opt.retry.max_attempts = 1;
  opt.worker_env[0] = {{"SGP_FAULT_SPEC", "proc.worker.exit"}};
  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_EQ(result.workers_spawned, 2u);
  EXPECT_EQ(result.workers_lost, 1u);
  EXPECT_EQ(result.leases_reclaimed, 3u);
  EXPECT_EQ(result.shards_inprocess, 3u);  // shards 0, 2 and 4
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

// Side files are never trusted across runs. A run under other options
// crashes after its workers committed payloads; the next run's worker for
// slot 0 dies before writing anything, so the only rows on disk for its
// shards are the stale ones. They must not reach the new release, and no
// file of either run may outlive it.
TEST_F(DistributedChaosTest, StaleSideFilesOfOtherOptionsAreNeverSpliced) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  auto stale = options(/*workers=*/2);
  stale.sharded.publish.params.epsilon = 8.0;
  util::arm_fault("io.shard.write", {});  // in this process only
  EXPECT_THROW(publish_distributed(reader, stale, out_path_), util::IoError);
  util::disarm_all_faults();
  const auto left = files_named_after_release();
  ASSERT_TRUE(std::any_of(left.begin(), left.end(), [](const std::string& n) {
    return n.find(".shard.") != std::string::npos;
  })) << "the crashed run left no committed side file";

  auto opt = options(/*workers=*/2);
  opt.worker_env[0] = {{"SGP_FAULT_SPEC", "proc.worker.exit:count=1"}};
  const auto result = publish_distributed(reader, opt, out_path_);
  EXPECT_GE(result.workers_lost, 1u);
  const graph::Graph g =
      graph::read_edge_list_file(kEdgesPath, graph::IdPolicy::kPreserve);
  std::ostringstream ref(std::ios::binary);
  publish_to_stream(g, opt.sharded.publish, ref);
  EXPECT_EQ(file_bytes(out_path_), ref.str())
      << "rows of another release were spliced into this one";
  expect_no_side_files();
}

// A leftover side file of these very options is not trusted either: a
// crashed run's committed files are overwritten with zeros of the right
// size, and the rerun must recompute those shards, not splice the zeros.
TEST_F(DistributedChaosTest, LeftoverSideFilesOfTheseOptionsAreRecomputed) {
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  util::arm_fault("io.shard.write", {});  // in this process only
  EXPECT_THROW(publish_distributed(reader, options(/*workers=*/2), out_path_),
               util::IoError);
  util::disarm_all_faults();
  std::size_t planted = 0;
  for (const std::string& name : files_named_after_release()) {
    if (name.find(".shard.") == std::string::npos) continue;
    const auto path = std::filesystem::path(out_path_).parent_path() / name;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << std::string(kShardBytes, '\0');
    ++planted;
  }
  ASSERT_GE(planted, 1u) << "the crashed run left no committed side file";

  auto opt = options(/*workers=*/2);
  opt.worker_env[0] = {{"SGP_FAULT_SPEC", "proc.worker.exit:count=1"}};
  publish_distributed(reader, opt, out_path_);
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  expect_no_side_files();
}

}  // namespace
}  // namespace sgp::core
