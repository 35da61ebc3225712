// Host-dependent speed gate of the slow layer. BENCH_MICRO's fused-SpMM
// speedup is memory-bound, so tier-1 does not gate it. Here the median of
// kRuns fresh runs of bench_micro_kernels must reach the committed baseline
// (bench/baselines/BENCH_MICRO.json, written by make_baseline.py from 20
// runs on one host) less that host's interquartile range: a vector kernel
// that falls behind its usual speedup by more than the runs' own spread
// fails. The baseline holds only where it was measured, so a run on another
// host or kernel variant is skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

constexpr int kRuns = 9;

sgp::util::JsonValue read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return sgp::util::parse_json(buf.str());
}

TEST(MicroBaseline, FusedSpmmSpeedupReachesTheHostBaseline) {
  const sgp::util::JsonValue baseline = read_json(SGP_MICRO_BASELINE);
  const std::string host = baseline.find("host")->as_string();
  const std::string kernel = baseline.find("kernel_variant")->as_string();
  const sgp::util::JsonValue& stats = *baseline.find("fused_spmm_speedup");
  const double median = stats.find("median")->as_number();
  const double iqr =
      stats.find("p75")->as_number() - stats.find("p25")->as_number();

  const std::string dir = testing::TempDir() + "/sgp_micro_baseline";
  std::filesystem::create_directories(dir);
  const std::string run = "SGP_BENCH_JSON_DIR=" + dir + " " SGP_MICRO_BENCH
                          " --benchmark_filter=__none__ >/dev/null 2>&1";
  std::vector<double> speedups;
  for (int r = 0; r < kRuns; ++r) {
    ASSERT_EQ(std::system(run.c_str()), 0) << run;
    const sgp::util::JsonValue report = read_json(dir + "/BENCH_MICRO.json");
    const sgp::util::JsonValue& meta = *report.find("meta");
    const std::string run_host = meta.find("host")->as_string();
    const std::string run_kernel = meta.find("kernel_variant")->as_string();
    if (run_host != host || run_kernel != kernel) {
      GTEST_SKIP() << "the baseline was measured under " << kernel << " on "
                   << host << "; this run is " << run_kernel << " on "
                   << run_host;
    }
    speedups.push_back(meta.find("fused_spmm_speedup")->as_number());
  }
  std::sort(speedups.begin(), speedups.end());
  EXPECT_GE(speedups[kRuns / 2], median - iqr)
      << "median of " << kRuns << " runs against the baseline of " << host
      << " (median " << median << ", interquartile range " << iqr
      << "); slowest " << speedups.front() << ", fastest " << speedups.back();
}

}  // namespace
