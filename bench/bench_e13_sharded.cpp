// E13: out-of-core shard-parallel publishing — peak memory and thread
// scaling for publish_sharded (core/sharded_publish.hpp).
//
// Claim under test: working memory is O(rows_per_shard·m + |E_shard|), not
// the O(n·m) of a materialized release, while the output stays byte-
// identical across shard heights and thread counts. Peak RSS is read from
// the kernel's VmHWM high-water mark (/proc/self/status), which is monotone
// over the process lifetime — so shard heights run in ascending footprint
// order and each row's reading reflects the largest footprint so far.
//
// A last table times the same file published both ways at the same thread
// count (the global pool): in memory (read_edge_list_file → publish →
// save_published_file) and sharded (EdgeListShardReader + publish_sharded,
// 4 shards). Their ratio is meta sharded_over_inmemory.
//
// Usage: bench_e13_sharded [--nodes N] [--dim M]   (defaults 20000 / 100).
// The ctest schema fixture runs it with a tiny --nodes so validating
// BENCH_E13.json stays fast; the meta keys (shard_rows, peak_rss_mb,
// threads, sharded_over_inmemory) are emitted regardless of size.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/distributed_publish.hpp"
#include "core/publisher.hpp"
#include "core/serialization.hpp"
#include "core/sharded_publish.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "random/kernel_variant.hpp"
#include "random/rng.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// Peak resident set (MiB) so far, from /proc/self/status VmHWM. Returns 0
/// where /proc is unavailable (non-Linux) — the table then shows 0 rather
/// than lying.
double peak_rss_mb() {
#if defined(__linux__)
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
#endif
  return 0.0;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("nodes", 20000));
  const auto m = static_cast<std::size_t>(args.get_int("dim", 100));

  sgp::bench::BenchReport report("E13");
  sgp::bench::banner(
      "E13: out-of-core sharded publish",
      "Peak RSS vs shard height (bounded by rows_per_shard*m, not n*m) and "
      "thread scaling at fixed shard height; output bytes identical "
      "throughout.");

  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string edges_path = dir + "/sgp_bench_e13.edges";
  const std::string out_path = dir + "/sgp_bench_e13.bin";
  {
    // Scope the generated graph so only the on-disk edge list survives —
    // from here on the bench works out of core, like the tool would.
    sgp::obs::ScopedTimer timer("bench.generate");
    sgp::random::Rng rng(41);
    const sgp::graph::Graph g = sgp::graph::barabasi_albert(n, 5, rng);
    sgp::graph::write_edge_list_file(g, edges_path);
    std::fprintf(stderr, "[bench] %zu nodes / %zu edges -> %s\n",
                 g.num_nodes(), g.num_edges(), edges_path.c_str());
  }

  const sgp::graph::EdgeListShardReader reader(edges_path,
                                               sgp::graph::IdPolicy::kPreserve);
  sgp::core::ShardedPublishOptions opt;
  opt.publish.projection_dim = m;
  opt.publish.seed = 43;

  const double full_release_mb =
      static_cast<double>(n) * static_cast<double>(m) * 8.0 / (1 << 20);
  const std::size_t meta_shard_rows = std::max<std::size_t>(1, n / 16);

  std::printf("Shard-height scaling (n=%zu, m=%zu, 1 thread):\n", n, m);
  sgp::util::TextTable shard_table(
      {"shard_rows", "shards", "seconds", "tile_mb", "vm_hwm_mb", "full_mb"});
  opt.threads = 1;
  for (const std::size_t shard_rows :
       {meta_shard_rows, std::max<std::size_t>(1, n / 4), n}) {
    opt.shard_rows = shard_rows;
    sgp::obs::ScopedTimer timer("bench.shard_height");
    timer.attr("shard_rows", shard_rows);
    const auto result = sgp::core::publish_sharded(reader, opt, out_path);
    const double seconds = timer.stop();
    shard_table.new_row()
        .add(shard_rows)
        .add(result.shards_total)
        .add(seconds, 3)
        .add(static_cast<double>(shard_rows) * static_cast<double>(m) * 8.0 /
                 (1 << 20),
             2)
        .add(peak_rss_mb(), 1)
        .add(full_release_mb, 1);
  }
  std::printf("%s\n", shard_table.to_string().c_str());

  std::printf("Thread scaling (shard_rows=%zu):\n",
              std::max<std::size_t>(1, n / 4));
  sgp::util::TextTable thread_table(
      {"threads", "seconds", "identical_bytes"});
  opt.shard_rows = std::max<std::size_t>(1, n / 4);
  std::string reference_bytes;
  std::size_t max_threads = 1;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    opt.threads = threads;
    sgp::obs::ScopedTimer timer("bench.thread_scaling");
    timer.attr("threads", threads);
    sgp::core::publish_sharded(reader, opt, out_path);
    const double seconds = timer.stop();
    const std::string bytes = read_bytes(out_path);
    if (reference_bytes.empty()) reference_bytes = bytes;
    thread_table.new_row()
        .add(threads)
        .add(seconds, 3)
        .add(bytes == reference_bytes ? "yes" : "NO");
    max_threads = threads;
  }
  std::printf("%s", thread_table.to_string().c_str());

  // Process scaling: the distributed coordinator/worker path over real
  // sgp_publish child processes (core/distributed_publish.hpp). processes=1
  // runs the shards in the coordinator itself (no worker program), so the
  // axis shares a baseline with the tables above.
  std::printf("\nProcess scaling (shard_rows=%zu, 2 threads/worker):\n",
              std::max<std::size_t>(1, n / 16));
  sgp::util::TextTable process_table(
      {"processes", "seconds", "spawned", "identical_bytes"});
  reference_bytes.clear();
  std::size_t max_processes = 1;
  for (const std::size_t processes : {1, 2, 4}) {
    sgp::core::DistributedPublishOptions dopt;
    dopt.sharded = opt;
    dopt.sharded.shard_rows = std::max<std::size_t>(1, n / 16);
    dopt.sharded.threads = 2;
    dopt.workers = processes;
    if (processes > 1) dopt.worker_program = SGP_PUBLISH_BIN;
    dopt.edges_path = edges_path;
    dopt.id_policy = sgp::graph::IdPolicy::kPreserve;
    sgp::obs::ScopedTimer timer("bench.process_scaling");
    timer.attr("processes", processes);
    const auto result = sgp::core::publish_distributed(reader, dopt, out_path);
    const double seconds = timer.stop();
    const std::string bytes = read_bytes(out_path);
    if (reference_bytes.empty()) reference_bytes = bytes;
    process_table.new_row()
        .add(processes)
        .add(seconds, 3)
        .add(result.workers_spawned)
        .add(bytes == reference_bytes ? "yes" : "NO");
    max_processes = processes;
  }
  std::printf("%s", process_table.to_string().c_str());

  // Sharded over in-memory, median of three runs each, both on the global
  // pool; the two must write the same bytes.
  std::printf("\nSharded over in-memory (shard_rows=%zu, global pool):\n",
              std::max<std::size_t>(1, n / 4));
  opt.threads = 0;
  opt.shard_rows = std::max<std::size_t>(1, n / 4);
  const auto median_seconds = [](const char* span, const auto& publish) {
    std::vector<double> seconds;
    for (int run = 0; run < 3; ++run) {
      sgp::obs::ScopedTimer timer(span);
      publish();
      seconds.push_back(timer.stop());
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[1];
  };
  const double inmemory_seconds = median_seconds("bench.inmemory", [&] {
    const sgp::graph::Graph g = sgp::graph::read_edge_list_file(
        edges_path, sgp::graph::IdPolicy::kPreserve);
    sgp::core::save_published_file(
        sgp::core::RandomProjectionPublisher(opt.publish).publish(g),
        out_path);
  });
  reference_bytes = read_bytes(out_path);
  const double sharded_seconds = median_seconds("bench.sharded", [&] {
    const sgp::graph::EdgeListShardReader sharded_reader(
        edges_path, sgp::graph::IdPolicy::kPreserve);
    (void)sgp::core::publish_sharded(sharded_reader, opt, out_path);
  });
  const double sharded_over_inmemory = sharded_seconds / inmemory_seconds;
  sgp::util::TextTable ratio_table({"mode", "seconds", "identical_bytes"});
  ratio_table.new_row().add("in memory").add(inmemory_seconds, 3).add("yes");
  ratio_table.new_row()
      .add("sharded")
      .add(sharded_seconds, 3)
      .add(read_bytes(out_path) == reference_bytes ? "yes" : "NO");
  std::printf("%ssharded_over_inmemory: %.3f\n",
              ratio_table.to_string().c_str(), sharded_over_inmemory);

  report.meta("nodes", static_cast<std::uint64_t>(n))
      .meta("m", static_cast<std::uint64_t>(m))
      .meta("shard_rows", static_cast<std::uint64_t>(meta_shard_rows))
      .meta("peak_rss_mb", peak_rss_mb())
      .meta("threads", static_cast<std::uint64_t>(max_threads))
      .meta("processes", static_cast<std::uint64_t>(max_processes))
      .meta("sharded_over_inmemory", sharded_over_inmemory)
      // Kernel axis: the variant the shard tiles were generated under (the
      // resolved default unless SGP_FORCE_KERNEL says otherwise); byte
      // identity across threads/processes holds per variant.
      .meta("kernel_variant",
            std::string(sgp::random::to_string(
                sgp::random::resolve_normal_kernel(
                    sgp::random::KernelVariant::kAuto))))
      // The schema distributed runs of this configuration merge into —
      // the one this BENCH file is written in too (sgp_bench_check
      // enforces it).
      .meta("obs_schema", "sgp-obs-report v2");

  std::error_code ec;
  std::filesystem::remove(edges_path, ec);
  std::filesystem::remove(out_path, ec);
  return 0;
}
