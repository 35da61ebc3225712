// sgp_publish — command-line publisher: edge list in, DP release out.
//
//   sgp_publish --edges graph.txt --out release.bin
//               [--epsilon 1.0] [--delta 1e-6] [--dim 100]
//               [--projection gaussian|achlioptas] [--seed 7] [--streaming]
//               [--kernel auto|scalar|generic|avx2|avx512]
//               [--shard-rows R | --max-memory-mb MB] [--threads T]
//               [--no-resume] [--io-attempts K]
//               [--workers N [--lease-timeout S] [--worker-fault-spec F]]
//               [--ledger budget.ledger --budget-epsilon 10 --budget-delta 1e-5]
//               [--metrics-out metrics.json [--metrics-format prometheus]]
//               [--trace]
//
// With --streaming the release is computed row by row (≈half the peak
// memory); output bytes are identical either way.
//
// --kernel selects the value-generation kernel (docs/scaling.md). The
// default ("auto") honours SGP_FORCE_KERNEL and otherwise stays on the
// byte-stable scalar path; "avx2"/"avx512"/"generic" opt a gaussian
// release into the vectorized polynomial mapping, which is recorded in
// the release header ("counter-v1-simd") so reconstruction regenerates
// the same projection on any machine.
//
// With --shard-rows (or --max-memory-mb, which derives a shard height from
// a memory budget — docs/scaling.md) the release is produced out of core by
// the shard coordinator: the graph is never materialized, and row shards
// stream from the edge list and append to the release file in order, still
// byte-identical to the other paths. Each appended shard is logged in
// `<out>.ckpt`; rerunning the same command after a crash resumes after the
// last logged shard (--no-resume starts over). Combined with --ledger, a
// rerun finishes the last charged release instead of charging a new one
// only when the shard log names that release: the same edge list, seed, m,
// budget and shard height. A log any other run left gets a fresh charge.
// --threads T sizes the shard loop's pool and is at most 1024
// (util::kMaxThreads).
//
// With --workers N the coordinator hands the shards to N worker
// *processes* — workers that crash, are killed, or go silent are reclaimed
// and their shards reassigned (or computed by the coordinator as the last
// resort), and the release is still byte-identical to every other path.
// N is at most 256 (core::kMaxWorkers). A larger --threads or --workers
// exits 2 before the edge list is scanned.
// --lease-timeout bounds how long a silent worker is trusted;
// --worker-fault-spec arms an SGP_FAULT_SPEC in worker slot 0 only (the
// chaos hook — docs/robustness.md). The hidden --worker flag is the
// child-process entry point and not for interactive use. Architecture and
// shard log format: docs/scaling.md.
//
// With --ledger the release is charged against a crash-safe budget ledger
// by the one write-ahead step (core::Mechanism::charge), whose record holds
// the σ the release carries: repeated invocations against the same ledger
// accumulate spent (ε, δ), and once the total cap (--budget-epsilon/
// --budget-delta) would be exceeded the tool refuses with exit code 4 and
// publishes nothing. See docs/robustness.md for the ledger format and
// recovery semantics.
//
// Every flag given must take effect, or the tool exits 2 before it charges
// the ledger or writes a file: --threads, --no-resume and --io-attempts
// need an out-of-core flag; --lease-timeout and --worker-fault-spec need
// --workers; the budget flags need --ledger; --streaming needs an
// in-memory publish without --ledger; and a misspelt flag is never
// accepted.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/distributed_publish.hpp"
#include "core/serialization.hpp"
#include "core/session.hpp"
#include "core/sharded_publish.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "random/kernel_variant.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace {

/// Path of the running binary, for re-invoking ourselves as workers.
/// /proc/self/exe survives $PATH lookups and directory changes; argv[0] is
/// the fallback where procfs is unavailable.
std::string self_program(const sgp::util::CliArgs& args) {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? args.program() : exe.string();
}

/// A count flag that selects out-of-core publishing: absent reads as 0,
/// and a given 0 is a usage error rather than "not given".
std::size_t mode_count(const sgp::util::CliArgs& args, const char* flag) {
  const auto value = static_cast<std::size_t>(args.get_uint64(flag, 0));
  if (value == 0 && args.has(flag)) {
    throw sgp::util::PreconditionError(std::string("--") + flag +
                                       " must be at least 1");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const std::string edges_path = args.get_string("edges", "");
  const std::string out_path = args.get_string("out", "release.bin");
  if (edges_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --edges graph.txt --out release.bin "
                 "[--epsilon E] [--delta D] [--dim M] "
                 "[--projection gaussian|achlioptas] [--seed S] "
                 "[--kernel auto|scalar|generic|avx2|avx512] "
                 "[--streaming] [--shard-rows R | --max-memory-mb MB] "
                 "[--threads T<=1024] [--no-resume] [--io-attempts K] "
                 "[--workers N<=256 [--lease-timeout S] "
                 "[--worker-fault-spec F]] "
                 "[--ledger budget.ledger "
                 "--budget-epsilon E --budget-delta D] "
                 "[--metrics-out metrics.json] [--trace]\n",
                 args.program().c_str());
    return sgp::tools::kExitUsage;
  }

  return sgp::tools::run_tool([&]() -> int {
    sgp::tools::ObsScope obs_scope(args, "sgp_publish");
    // Hidden child-process mode: the distributed coordinator re-invokes
    // this binary with --worker plus its shard assignment (docs/scaling.md).
    if (args.get_bool("worker", false)) {
      return sgp::core::run_publish_worker(args);
    }

    const auto policy = args.get_bool("preserve-ids", false)
                            ? sgp::graph::IdPolicy::kPreserve
                            : sgp::graph::IdPolicy::kCompact;

    sgp::core::RandomProjectionPublisher::Options opt;
    opt.projection_dim =
        static_cast<std::size_t>(args.get_uint64("dim", 100));
    opt.params = {args.get_double("epsilon", 1.0),
                  args.get_double("delta", 1e-6)};
    opt.seed = args.get_uint64("seed", 7);
    opt.projection = sgp::core::parse_projection_kind(
        args.get_string("projection", "gaussian"));
    opt.kernel =
        sgp::random::parse_kernel_variant(args.get_string("kernel", "auto"));
    const std::string ledger_path = args.get_string("ledger", "");
    sgp::core::PublishingSession::Options sopt;
    if (!ledger_path.empty()) {
      // The cap is the point of the ledger — refuse to default it silently.
      if (args.get_string("budget-epsilon", "").empty()) {
        throw sgp::util::PreconditionError(
            "--ledger requires --budget-epsilon");
      }
      sopt.publisher = opt;
      sopt.total_budget = {args.get_double("budget-epsilon", 10.0),
                           args.get_double("budget-delta", 1e-5)};
    }

    const std::size_t shard_rows_flag = mode_count(args, "shard-rows");
    const std::size_t max_memory_mb = mode_count(args, "max-memory-mb");
    const auto workers_flag = static_cast<std::size_t>(
        args.get_uint64("workers", 0, sgp::core::kMaxWorkers));
    // Zero workers is the in-process coordinator, which needs a shard height.
    if (workers_flag == 0 && args.has("workers") && shard_rows_flag == 0 &&
        max_memory_mb == 0) {
      throw sgp::util::PreconditionError(
          "--workers 0 needs --shard-rows or --max-memory-mb");
    }
    if (shard_rows_flag > 0 || max_memory_mb > 0 || workers_flag > 0) {
      // Out-of-core path: the graph is never materialized — the reader
      // scans the file once for shape, then the shard coordinator streams
      // one row shard at a time, computing it itself or handing it to a
      // worker process under --workers.
      sgp::core::DistributedPublishOptions dopt;
      dopt.sharded.threads = static_cast<std::size_t>(
          args.get_uint64("threads", 0, sgp::util::kMaxThreads));
      dopt.sharded.resume = !args.get_bool("no-resume", false);
      // Worker runs default to riding out transient shard-IO failures; the
      // single-process path stays fail-fast unless asked.
      dopt.sharded.io_retry.max_attempts = static_cast<std::size_t>(
          args.get_uint64("io-attempts", workers_flag > 0 ? 3 : 1));
      dopt.workers = workers_flag;
      if (workers_flag > 0) {
        dopt.worker_program = self_program(args);
        dopt.edges_path = edges_path;
        dopt.id_policy = policy;
        dopt.lease_timeout_seconds = args.get_double("lease-timeout", 30.0);
        const std::string worker_spec =
            args.get_string("worker-fault-spec", "");
        if (!worker_spec.empty()) {
          dopt.worker_env[0] = {{"SGP_FAULT_SPEC", worker_spec}};
        }
        if (obs_scope.metrics_on()) {
          // Cross-process plane: per-process sidecars under this prefix,
          // merged into one "sgp-obs-report v2" when obs_scope closes.
          dopt.obs_sidecar_prefix = out_path + ".obs.";
        }
      }
      args.reject_unread();

      sgp::obs::ScopedTimer scan_timer(sgp::obs::names::kToolLoadGraph);
      sgp::graph::EdgeListShardReader reader(edges_path, policy);
      std::fprintf(stderr, "scanned %zu nodes / %zu edge records in %.2fs\n",
                   reader.num_nodes(), reader.edge_records(),
                   scan_timer.stop());

      sgp::obs::ScopedTimer publish_timer(sgp::obs::names::kToolPublish);
      if (shard_rows_flag > 0) {
        dopt.sharded.shard_rows = shard_rows_flag;
      } else if (max_memory_mb > 0) {
        dopt.sharded.shard_rows = sgp::core::shard_rows_for_memory(
            max_memory_mb, opt.projection_dim);
      } else {
        // --workers alone: ~4 shards per worker keeps the reassignment
        // granularity fine enough that losing a worker loses little work.
        dopt.sharded.shard_rows = std::max<std::size_t>(
            1, (reader.num_nodes() + 4 * workers_flag - 1) /
                   (4 * workers_flag));
      }

      // A shard log that names the last charged release means that
      // release never finished: finish it under its original (already-paid)
      // options instead of charging the budget a second time. Any other
      // log is no proof of payment, so the release is charged.
      dopt.sharded.publish = opt;
      std::optional<sgp::core::PublishingSession> session;
      if (!ledger_path.empty()) {
        session.emplace(sopt, ledger_path);
        const std::size_t last = session->num_releases();
        bool finish_last = false;
        if (dopt.sharded.resume && last > 0) {
          dopt.sharded.publish = session->release_options(last);
          finish_last =
              sgp::core::shard_log_matches(reader, dopt.sharded, out_path);
        }
        if (!finish_last) dopt.sharded.publish = session->begin_release();
      }

      const auto result =
          sgp::core::publish_distributed(reader, dopt, out_path);
      if (!result.trace_id.empty()) {
        obs_scope.set_distributed_merge(dopt.obs_sidecar_prefix,
                                        result.trace_id);
      }
      std::fprintf(stderr,
                   "published %s: %zu shards of %zu rows (%zu resumed) under "
                   "%s in %.2fs\n",
                   out_path.c_str(), result.shards_total,
                   dopt.sharded.shard_rows, result.shards_resumed,
                   opt.params.to_string().c_str(), publish_timer.stop());
      if (workers_flag > 0) {
        std::fprintf(stderr,
                     "workers: %zu spawned, %zu lost, %zu leases reclaimed, "
                     "%zu shards in-process\n",
                     result.workers_spawned, result.workers_lost,
                     result.leases_reclaimed, result.shards_inprocess);
      }
      if (session) {
        std::fprintf(stderr, "session now at %s (%.3f epsilon left)\n",
                     session->spent().to_string().c_str(),
                     session->remaining_epsilon());
      }
      return sgp::tools::kExitOk;
    }

    // These flags configure the shard loop only; refuse them here rather
    // than let an in-memory or --streaming publish ignore them.
    for (const char* flag : {"threads", "no-resume", "io-attempts"}) {
      if (args.has(flag)) {
        throw sgp::util::PreconditionError(
            std::string("--") + flag +
            " applies only to out-of-core publishing; add --shard-rows, "
            "--max-memory-mb or --workers");
      }
    }
    const bool streaming =
        ledger_path.empty() && args.get_bool("streaming", false);
    args.reject_unread();

    sgp::obs::ScopedTimer load_timer(sgp::obs::names::kToolLoadGraph);
    const auto graph = sgp::graph::read_edge_list_file(edges_path, policy);
    std::fprintf(stderr, "loaded %zu nodes / %zu edges in %.2fs\n",
                 graph.num_nodes(), graph.num_edges(), load_timer.stop());

    sgp::obs::ScopedTimer publish_timer(sgp::obs::names::kToolPublish);
    if (!ledger_path.empty()) {
      sgp::core::PublishingSession session(sopt, ledger_path);
      std::fprintf(stderr, "ledger %s: %zu prior releases, spent %s\n",
                   ledger_path.c_str(), session.num_releases(),
                   session.spent().to_string().c_str());
      const auto release = session.publish(graph);
      sgp::core::save_published_file(release, out_path);
      std::fprintf(stderr,
                   "published %s; session now at %s (%.3f epsilon left)\n",
                   out_path.c_str(), session.spent().to_string().c_str(),
                   session.remaining_epsilon());
      return sgp::tools::kExitOk;
    }
    if (streaming) {
      std::ofstream out(out_path, std::ios::binary);
      if (!out.good()) {
        throw sgp::util::IoError("cannot open " + out_path);
      }
      sgp::core::publish_to_stream(graph, opt, out);
    } else {
      const auto release =
          sgp::core::RandomProjectionPublisher(opt).publish(graph);
      sgp::core::save_published_file(release, out_path);
    }
    std::fprintf(stderr, "published %s under %s in %.2fs\n", out_path.c_str(),
                 opt.params.to_string().c_str(), publish_timer.stop());
    return sgp::tools::kExitOk;
  });
}
