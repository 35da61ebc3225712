#include "core/distributed_publish.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/projection.hpp"
#include "core/serialization.hpp"
#include "core/theory.hpp"
#include "dp/defaults.hpp"
#include "dp/privacy.hpp"
#include "obs/event_log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "random/kernel_variant.hpp"
#include "random/rng.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/durable.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {
namespace {

constexpr char kLeaseMagic[] = "sgp-shard-lease v1";

std::string crc_hex_of(std::string_view bytes) {
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", util::crc32(bytes));
  return hex;
}

std::string crc_hex_of_u32(std::uint32_t crc) {
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  return hex;
}

std::string with_crc(const std::string& body) {
  return body + " crc " + crc_hex_of(body);
}

/// Validates a CRC-guarded record line; on success strips the trailer into
/// `body`. A torn or bit-flipped line simply compares unequal.
bool crc_line_ok(const std::string& line, std::string& body) {
  const std::size_t pos = line.rfind(" crc ");
  if (pos == std::string::npos) return false;
  body = line.substr(0, pos);
  return with_crc(body) == line;
}

std::string shard_payload_path(const std::string& out_path, std::size_t s) {
  return out_path + ".shard." + std::to_string(s);
}

std::string progress_path_for(const std::string& out_path, std::size_t worker,
                              std::size_t gen) {
  return out_path + ".w" + std::to_string(worker) + ".g" +
         std::to_string(gen);
}

std::uint64_t payload_bytes_for(const ShardPlan& plan, std::size_t s,
                                std::size_t m) {
  const auto [r0, r1] = plan.shard_range(s);
  return static_cast<std::uint64_t>(r1 - r0) * m * sizeof(double);
}

/// Reads a payload side file and returns its CRC-32 when it exists with
/// exactly `expected_bytes` bytes; nullopt otherwise. Payloads are written
/// to a temp name and renamed, so existence already implies a complete
/// write; the size check additionally rejects stale files left by an
/// earlier, differently-shaped run.
std::optional<std::uint32_t> verify_payload(const std::string& path,
                                            std::uint64_t expected_bytes) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size != expected_bytes) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  if (bytes.size() != expected_bytes) return std::nullopt;
  return util::crc32(bytes);
}

std::string lease_record(std::size_t s, std::size_t worker, std::size_t gen) {
  std::ostringstream out;
  out << "lease " << s << " worker " << worker << " gen " << gen;
  return with_crc(out.str());
}

std::string reclaim_record(std::size_t s, std::size_t worker,
                           const char* reason) {
  std::ostringstream out;
  out << "reclaim " << s << " worker " << worker << " reason " << reason;
  return with_crc(out.str());
}

std::string complete_record(std::size_t s, std::uint64_t bytes,
                            std::uint32_t payload_crc) {
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", payload_crc);
  std::ostringstream out;
  out << "complete " << s << " bytes " << bytes << " payload " << hex;
  return with_crc(out.str());
}

/// Commits a payload tile atomically: write to `<path>.tmp`, flush, rename.
/// The rename is the commit point the coordinator's verifier observes.
/// Takes the release's PrivacyParams (and re-validates them) so payload
/// bytes cannot leave through a signature with no privacy context — the
/// sgp-lint R8 privacy-flow contract.
void write_payload_file(const std::string& path,
                        const dp::PrivacyParams& params,
                        const std::vector<double>& tile) {
  params.validate();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw util::IoError("distributed publish: cannot open " + tmp);
    }
    write_published_doubles(out, tile);
    out.flush();
    if (!out.good()) {
      throw util::IoError("distributed publish: write failed on " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw util::IoError("distributed publish: cannot rename " + tmp + ": " +
                        ec.message());
  }
}

/// Shards proven complete by a prior run's lease file: `complete` records
/// under a matching magic + config whose payload side files still verify
/// (size and CRC). Returns shard → payload CRC. Scanning stops at the
/// first structurally invalid line (torn tail); a complete record whose
/// payload has since vanished is skipped, not fatal — the shard is simply
/// recomputed.
std::map<std::size_t, std::uint32_t> resumable_shards(
    const std::string& lease_path, const std::string& config,
    const ShardPlan& plan, std::size_t m, const std::string& out_path) {
  std::map<std::size_t, std::uint32_t> done;
  std::ifstream in(lease_path, std::ios::binary);
  if (!in.good()) return done;
  std::string line;
  if (!std::getline(in, line) || line != kLeaseMagic) return done;
  if (!std::getline(in, line) || line != config) return done;
  while (std::getline(in, line)) {
    std::string body;
    if (!crc_line_ok(line, body)) break;
    std::istringstream fields(body);
    std::string kind;
    fields >> kind;
    if (kind == "lease" || kind == "reclaim") continue;
    if (kind != "complete") break;
    std::size_t s = 0;
    std::uint64_t bytes = 0;
    std::string bytes_kw, payload_kw, recorded_hex;
    fields >> s >> bytes_kw >> bytes >> payload_kw >> recorded_hex;
    if (!fields || bytes_kw != "bytes" || payload_kw != "payload") break;
    if (s >= plan.num_shards() || bytes != payload_bytes_for(plan, s, m)) {
      break;
    }
    const auto crc = verify_payload(shard_payload_path(out_path, s), bytes);
    if (!crc) continue;
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", *crc);
    if (recorded_hex == hex) done[s] = *crc;
  }
  return done;
}

std::string format_double(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

/// Release-level trace id: wall-clock nanos mixed with the pid through the
/// splitmix64 finalizer. Uniqueness across concurrent coordinators is what
/// matters; this is an identifier, not randomness for the mechanism.
std::string mint_trace_id() {
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  std::uint64_t state = static_cast<std::uint64_t>(nanos) ^
                        (obs::sidecar_pid() << 32);
  const std::uint64_t mixed = random::splitmix64(state);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(mixed));
  return hex;
}

std::string sidecar_path_for_pid(const std::string& prefix) {
  return prefix + std::to_string(obs::sidecar_pid()) + ".jsonl";
}

}  // namespace

DistributedPublishResult publish_distributed(
    const graph::EdgeListShardReader& reader,
    const DistributedPublishOptions& options, const std::string& out_path) {
  const std::size_t n = reader.num_nodes();
  const std::size_t m = options.sharded.publish.projection_dim;
  util::require(n >= 1, "publish_distributed: graph must have nodes");
  util::require(m >= 1 && m <= n,
                "publish_distributed: projection_dim must be in [1, n]");
  util::require(options.lease_timeout_seconds > 0.0,
                "publish_distributed: lease timeout must be positive");
  options.sharded.publish.params.validate();
  const std::size_t workers = std::max<std::size_t>(1, options.workers);

  const ShardPlan plan = plan_shards(n, options.sharded.shard_rows);
  const NoiseCalibration calibration = calibrate_noise(
      m, options.sharded.publish.params,
      options.sharded.publish.analytic_calibration,
      options.sharded.publish.delta_split);
  const std::string config =
      shard_config_line(options.sharded, n, m, calibration, plan);
  const std::string config_crc = crc_hex_of(config);

  // The observability plane: mint the release trace id and open the
  // coordinator's sidecar before any span or lifecycle event fires. The
  // merged v2 report needs the span tree, so tracing is forced on even when
  // the tool only asked for metrics.
  const bool obs_plane = !options.obs_sidecar_prefix.empty();
  std::string trace_id;
  if (obs_plane) {
    trace_id = mint_trace_id();
    obs::set_trace_enabled(true);
    obs::SidecarInfo sidecar_info;
    sidecar_info.role = "coordinator";
    sidecar_info.trace_id = trace_id;
    obs::open_sidecar(sidecar_path_for_pid(options.obs_sidecar_prefix),
                      sidecar_info);
  }

  obs::ScopedTimer timer(obs::names::kPublishDistributed);
  timer.attr("n", n).attr("m", m).attr("shards", plan.num_shards())
      .attr("workers", workers);
  // The span every worker forest re-attaches under at merge time.
  const std::uint64_t parent_span = obs::current_span_id();
  obs::gauge(obs::names::kPublishWorkers).set(static_cast<double>(workers));
  obs::gauge(obs::names::kPublishShardRows)
      .set(static_cast<double>(plan.shard_rows));
  obs::gauge(obs::names::kPublishSigma).set(calibration.sigma);
  obs::gauge(obs::names::kGraphNodes).set(static_cast<double>(n));

  std::ostringstream header;
  // The tag must name the normal mapping the shard tiles are generated
  // with — the same resolution the workers receive via --kernel.
  write_published_header(header, n, m, options.sharded.publish.params,
                         calibration, options.sharded.publish.projection,
                         projection_rng_for(
                             options.sharded.publish.projection,
                             random::resolve_normal_kernel(
                                 options.sharded.publish.kernel)));
  const std::string header_bytes = header.str();

  const std::string lease_path = out_path + ".lease";
  std::map<std::size_t, std::uint32_t> resumed;
  if (options.sharded.resume) {
    resumed = resumable_shards(lease_path, config, plan, m, out_path);
  }
  std::set<std::size_t> completed;
  for (const auto& [s, crc] : resumed) completed.insert(s);

  DistributedPublishResult result;
  result.num_nodes = n;
  result.shards_total = plan.num_shards();
  result.shards_resumed = completed.size();
  result.trace_id = trace_id;
  result.calibration = calibration;
  if (!completed.empty()) {
    obs::counter(obs::names::kPublishShardsResumed).add(completed.size());
    for (const std::size_t s : completed) {
      obs::log_event(obs::names::kEventShardResumed,
                     {{"shard", std::to_string(s)}});
    }
  }

  // Rewrite the lease log: magic, config, then the completes that survived
  // verification. Every record from here on is fsynced before it is
  // trusted (util/durable.hpp).
  util::DurableAppender lease;
  lease.open(lease_path, /*truncate=*/true);
  {
    std::string prefix = std::string(kLeaseMagic) + '\n' + config + '\n';
    for (const auto& [s, crc] : resumed) {
      prefix += complete_record(s, payload_bytes_for(plan, s, m), crc) + '\n';
    }
    lease.append(prefix);
  }

  static obs::Counter& shards_done = obs::counter(obs::names::kPublishShards);
  static obs::Counter& reclaimed_ctr =
      obs::counter(obs::names::kPublishLeasesReclaimed);

  auto append_lease = [&](const std::string& record) {
    util::retry_with_backoff(options.retry, "lease append", [&] {
      util::fault_point(util::fault_points::kLeaseAcquire);
      lease.append_line(record);
    });
  };
  auto mark_complete = [&](std::size_t s, std::uint32_t crc) {
    append_lease(complete_record(s, payload_bytes_for(plan, s, m), crc));
    completed.insert(s);
    shards_done.add();
    obs::log_event(obs::names::kEventShardCommitted,
                   {{"shard", std::to_string(s)},
                    {"bytes", std::to_string(payload_bytes_for(plan, s, m))},
                    {"payload", crc_hex_of_u32(crc)}});
  };

  struct Slot {
    std::size_t id = 0;
    std::size_t gen = 0;
    std::size_t spawn_attempts = 0;
    bool timed_out = false;
    std::vector<std::size_t> pending;
    std::optional<util::Subprocess> proc;
    std::string progress_path;
    std::uintmax_t progress_size = 0;
    std::chrono::steady_clock::time_point last_activity;
  };
  std::vector<Slot> slots(workers);
  std::vector<std::size_t> inprocess;
  const std::size_t spawn_budget =
      std::max<std::size_t>(1, options.retry.max_attempts);

  auto try_spawn = [&](Slot& slot) -> bool {
    util::Subprocess::Options sp;
    sp.argv = {options.worker_program,
               "--worker",
               "--edges",
               options.edges_path,
               "--out",
               out_path,
               "--worker-id",
               std::to_string(slot.id),
               "--gen",
               std::to_string(slot.gen),
               "--config-crc",
               config_crc,
               "--dim",
               std::to_string(m),
               "--epsilon",
               format_double(options.sharded.publish.params.epsilon),
               "--delta",
               format_double(options.sharded.publish.params.delta),
               "--delta-split",
               format_double(options.sharded.publish.delta_split),
               "--seed",
               std::to_string(options.sharded.publish.seed),
               "--projection",
               to_string(options.sharded.publish.projection),
               // The coordinator resolves the kernel once and hands workers
               // the resolved name, so a worker can never re-resolve kAuto
               // differently (its environment is not trusted to match).
               "--kernel",
               std::string(random::to_string(
                   random::resolve_normal_kernel(
                       options.sharded.publish.kernel))),
               "--shard-rows",
               std::to_string(plan.shard_rows),
               "--threads",
               std::to_string(options.sharded.threads),
               "--io-attempts",
               std::to_string(options.sharded.io_retry.max_attempts)};
    std::string csv;
    for (std::size_t s : slot.pending) {
      if (!csv.empty()) csv += ',';
      csv += std::to_string(s);
    }
    sp.argv.push_back("--shards");
    sp.argv.push_back(csv);
    if (!options.sharded.publish.analytic_calibration) {
      sp.argv.push_back("--no-analytic");
    }
    if (options.id_policy == graph::IdPolicy::kPreserve) {
      sp.argv.push_back("--preserve-ids");
    }
    if (slot.gen == 0) {
      const auto it = options.worker_env.find(slot.id);
      if (it != options.worker_env.end()) sp.env = it->second;
    }
    if (obs_plane) {
      // Trace context rides the environment into *every* generation — a
      // replacement worker reports under the same release trace id.
      sp.env.emplace_back("SGP_OBS_SIDECAR", options.obs_sidecar_prefix);
      sp.env.emplace_back("SGP_TRACE_ID", trace_id);
      sp.env.emplace_back("SGP_PARENT_SPAN", std::to_string(parent_span));
    }
    try {
      slot.proc.emplace(util::Subprocess::spawn(sp));
    } catch (const util::IoError&) {
      return false;
    }
    slot.progress_path = progress_path_for(out_path, slot.id, slot.gen);
    slot.progress_size = 0;
    slot.last_activity = std::chrono::steady_clock::now();
    ++result.workers_spawned;
    obs::log_event(obs::names::kEventWorkerSpawned,
                   {{"worker", std::to_string(slot.id)},
                    {"gen", std::to_string(slot.gen)},
                    {"pid", std::to_string(slot.proc->pid())}});
    for (std::size_t s : slot.pending) {
      append_lease(lease_record(s, slot.id, slot.gen));
      obs::log_event(obs::names::kEventShardLeased,
                     {{"shard", std::to_string(s)},
                      {"worker", std::to_string(slot.id)},
                      {"gen", std::to_string(slot.gen)}});
    }
    return true;
  };

  // Spawn (or re-spawn) a slot; once its generation budget is spent, its
  // shards fall back to the coordinator's own in-process queue — the
  // release always completes, whatever the workers do.
  auto spawn_or_fallback = [&](Slot& slot) {
    while (!slot.pending.empty() && slot.spawn_attempts < spawn_budget) {
      ++slot.spawn_attempts;
      if (try_spawn(slot)) return;
      util::sleep_for_seconds(
          util::retry_backoff_seconds(options.retry, slot.spawn_attempts));
    }
    if (!slot.pending.empty()) {
      for (std::size_t s : slot.pending) {
        append_lease(reclaim_record(s, slot.id, "spawn"));
        obs::log_event(obs::names::kEventLeaseReclaimed,
                       {{"shard", std::to_string(s)},
                        {"worker", std::to_string(slot.id)},
                        {"reason", "spawn"}});
      }
      inprocess.insert(inprocess.end(), slot.pending.begin(),
                       slot.pending.end());
      slot.pending.clear();
    }
  };

  // Completion is observed through the payload files themselves — the
  // rename commit plus size/CRC verification — never through worker exit
  // codes or progress-file claims.
  auto harvest = [&](Slot& slot) {
    for (auto it = slot.pending.begin(); it != slot.pending.end();) {
      const auto crc = verify_payload(shard_payload_path(out_path, *it),
                                      payload_bytes_for(plan, *it, m));
      if (crc) {
        mark_complete(*it, *crc);
        it = slot.pending.erase(it);
        slot.last_activity = std::chrono::steady_clock::now();
      } else {
        ++it;
      }
    }
  };

  std::size_t next_slot = 0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    if (completed.count(s) != 0) continue;
    slots[next_slot % workers].pending.push_back(s);
    ++next_slot;
  }
  for (std::size_t w = 0; w < workers; ++w) {
    slots[w].id = w;
    if (options.worker_program.empty()) {
      inprocess.insert(inprocess.end(), slots[w].pending.begin(),
                       slots[w].pending.end());
      slots[w].pending.clear();
    } else {
      spawn_or_fallback(slots[w]);
    }
  }

  while (true) {
    bool any_live = false;
    for (Slot& slot : slots) {
      if (!slot.proc) continue;
      any_live = true;
      harvest(slot);
      std::error_code ec;
      const auto psize = std::filesystem::file_size(slot.progress_path, ec);
      if (!ec && psize != slot.progress_size) {
        slot.progress_size = psize;
        slot.last_activity = std::chrono::steady_clock::now();
      }
      const auto status = slot.proc->try_wait();
      if (status.has_value()) {
        const std::int64_t worker_pid = slot.proc->pid();
        slot.proc.reset();
        // One more harvest: a payload rename can race the exit we just
        // observed, and a worker killed between the rename and its done
        // record (the second proc.worker.exit site) left verifiable work.
        harvest(slot);
        obs::log_event(obs::names::kEventWorkerExit,
                       {{"worker", std::to_string(slot.id)},
                        {"gen", std::to_string(slot.gen)},
                        {"pid", std::to_string(worker_pid)},
                        {"clean", status->clean() ? "1" : "0"}});
        if (!status->clean() || !slot.pending.empty()) {
          ++result.workers_lost;
        }
        if (!slot.pending.empty()) {
          const char* reason = slot.timed_out ? "timeout" : "died";
          for (std::size_t s : slot.pending) {
            append_lease(reclaim_record(s, slot.id, reason));
            ++result.leases_reclaimed;
            reclaimed_ctr.add();
            obs::log_event(obs::names::kEventLeaseReclaimed,
                           {{"shard", std::to_string(s)},
                            {"worker", std::to_string(slot.id)},
                            {"reason", reason}});
          }
          slot.timed_out = false;
          ++slot.gen;
          spawn_or_fallback(slot);
        }
      } else if (std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - slot.last_activity)
                     .count() > options.lease_timeout_seconds) {
        // Presumed dead: no payload landed and the heartbeat file stopped
        // growing. Kill hard; the next iteration reaps it as unclean.
        slot.timed_out = true;
        slot.proc->kill_hard();
      }
    }
    if (!any_live) break;
    util::sleep_for_seconds(options.poll_interval_seconds);
  }

  if (!inprocess.empty()) {
    std::optional<util::ThreadPool> local_pool;
    if (options.sharded.threads > 0) {
      local_pool.emplace(options.sharded.threads);
    }
    util::ThreadPool& pool = local_pool ? *local_pool : util::global_pool();
    std::vector<double> tile;
    std::sort(inprocess.begin(), inprocess.end());
    for (std::size_t s : inprocess) {
      const auto [r0, r1] = plan.shard_range(s);
      obs::ScopedTimer shard_timer(obs::names::kPublishShard);
      shard_timer.attr("shard", s).attr("rows", r1 - r0);
      const graph::ShardRows shard = util::retry_with_backoff(
          options.sharded.io_retry, "shard load",
          [&] { return reader.load_shard(r0, r1); });
      compute_shard_tile(shard, r0, r1, options.sharded.publish, calibration,
                         pool, tile);
      const std::string path = shard_payload_path(out_path, s);
      write_payload_file(path, options.sharded.publish.params, tile);
      const auto crc = verify_payload(path, payload_bytes_for(plan, s, m));
      SGP_CHECK(crc.has_value(),
                "publish_distributed: in-process payload failed verification");
      mark_complete(s, *crc);
      ++result.shards_inprocess;
    }
  }

  SGP_CHECK(completed.size() == plan.num_shards(),
            "publish_distributed: finished with incomplete shards");

  // Assemble the release: header then payloads in shard order — the exact
  // byte stream publish_sharded produces in one process.
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw util::IoError("publish_distributed: cannot open " + out_path);
  }
  out.write(header_bytes.data(),
            static_cast<std::streamsize>(header_bytes.size()));
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    util::fault_point(util::fault_points::kIoShardWrite);
    std::ifstream payload(shard_payload_path(out_path, s), std::ios::binary);
    if (!payload.good()) {
      throw util::IoError("publish_distributed: missing payload for shard " +
                          std::to_string(s));
    }
    out << payload.rdbuf();
    if (!out.good()) {
      throw util::IoError("publish_distributed: write failed on shard " +
                          std::to_string(s) + " of " + out_path);
    }
  }
  out.close();
  if (!out.good()) {
    throw util::IoError("publish_distributed: close failed on " + out_path);
  }

  // Publication is complete; drop every side file the protocol used.
  lease.close();
  std::error_code ec;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    std::filesystem::remove(shard_payload_path(out_path, s), ec);
  }
  for (const Slot& slot : slots) {
    for (std::size_t g = 0; g <= slot.gen; ++g) {
      std::filesystem::remove(progress_path_for(out_path, slot.id, g), ec);
    }
  }
  std::filesystem::remove(lease_path, ec);
  return result;
}

int run_publish_worker(const util::CliArgs& args) {
  const std::string edges_path = args.get_string("edges", "");
  const std::string out_path = args.get_string("out", "");
  util::require(!edges_path.empty() && !out_path.empty(),
                "worker: --edges and --out are required");

  ShardedPublishOptions opt;
  opt.publish.projection_dim =
      static_cast<std::size_t>(args.get_int("dim", 100));
  opt.publish.params = {args.get_double("epsilon", 1.0),
                        args.get_double("delta", 1e-6)};
  opt.publish.seed = args.get_uint64("seed", 7);
  if (args.get_string("projection", "gaussian") == "achlioptas") {
    opt.publish.projection = ProjectionKind::kAchlioptas;
  }
  opt.publish.kernel =
      random::parse_kernel_variant(args.get_string("kernel", "auto"));
  opt.publish.analytic_calibration = !args.get_bool("no-analytic", false);
  opt.publish.delta_split =
      args.get_double("delta-split", dp::kDefaultDeltaSplit);
  opt.shard_rows = static_cast<std::size_t>(args.get_int("shard-rows", 0));
  opt.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  opt.io_retry.max_attempts =
      static_cast<std::size_t>(args.get_int("io-attempts", 1));

  const auto policy = args.get_bool("preserve-ids", false)
                          ? graph::IdPolicy::kPreserve
                          : graph::IdPolicy::kCompact;
  const graph::EdgeListShardReader reader(edges_path, policy);
  const std::size_t n = reader.num_nodes();
  const std::size_t m = opt.publish.projection_dim;
  const ShardPlan plan = plan_shards(n, opt.shard_rows);
  const NoiseCalibration calibration =
      calibrate_noise(m, opt.publish.params, opt.publish.analytic_calibration,
                      opt.publish.delta_split);

  // Drift guard: the coordinator hands over the CRC of its config record;
  // a worker whose own derivation disagrees would publish different bytes,
  // so it must refuse rather than contribute a payload.
  const std::string config = shard_config_line(opt, n, m, calibration, plan);
  const std::string derived_crc = crc_hex_of(config);
  const std::string expected_crc = args.get_string("config-crc", "");
  if (expected_crc != derived_crc) {
    throw util::ParseError("worker: config drift (coordinator crc '" +
                           expected_crc + "', worker crc '" + derived_crc +
                           "')");
  }

  const std::size_t worker_id =
      static_cast<std::size_t>(args.get_int("worker-id", 0));
  const std::size_t gen = static_cast<std::size_t>(args.get_int("gen", 0));

  // Trace context handed down by the coordinator. When present, this worker
  // joins the release-wide observability plane: metrics + tracing on, its
  // own sidecar at `<prefix><pid>.jsonl`, resource sampling in the
  // background.
  obs::ResourceSampler sampler;
  {
    const char* sidecar_prefix = std::getenv("SGP_OBS_SIDECAR");
    if (sidecar_prefix != nullptr && *sidecar_prefix != '\0') {
      obs::set_metrics_enabled(true);
      obs::set_trace_enabled(true);
      const char* trace_env = std::getenv("SGP_TRACE_ID");
      const char* parent_env = std::getenv("SGP_PARENT_SPAN");
      obs::SidecarInfo info;
      info.role = "worker";
      info.trace_id = trace_env != nullptr ? trace_env : "";
      info.parent_span =
          parent_env != nullptr ? std::strtoull(parent_env, nullptr, 10) : 0;
      info.worker = static_cast<std::int64_t>(worker_id);
      info.gen = static_cast<std::int64_t>(gen);
      obs::open_sidecar(sidecar_path_for_pid(sidecar_prefix), info);
      sampler.start();
    }
  }

  std::vector<std::size_t> shards;
  {
    std::istringstream csv(args.get_string("shards", ""));
    std::string tok;
    while (std::getline(csv, tok, ',')) {
      if (tok.empty()) continue;
      const std::size_t s = std::stoull(tok);
      util::require(s < plan.num_shards(),
                    "worker: assigned shard index out of range");
      shards.push_back(s);
    }
  }

  // Heartbeats are liveness signals, not durability records: a flushed
  // stream is enough, because the coordinator only watches the file grow
  // and never trusts its content for recovery.
  std::ofstream progress(progress_path_for(out_path, worker_id, gen),
                         std::ios::binary | std::ios::trunc);
  if (!progress.good()) {
    throw util::IoError("worker: cannot open progress file " +
                        progress_path_for(out_path, worker_id, gen));
  }

  std::optional<util::ThreadPool> local_pool;
  if (opt.threads > 0) local_pool.emplace(opt.threads);
  util::ThreadPool& pool = local_pool ? *local_pool : util::global_pool();

  std::vector<double> tile;
  std::uint64_t seq = 0;
  for (std::size_t s : shards) {
    // Chaos site 1: death at a shard boundary — this shard's lease (and
    // every later one held by this worker) must be reclaimed.
    util::fault_point(util::fault_points::kProcWorkerExit);
    util::fault_point(util::fault_points::kLeaseHeartbeat);
    progress << with_crc("hb " + std::to_string(seq++)) << '\n';
    progress.flush();
    obs::log_event(obs::names::kEventWorkerShardStart,
                   {{"shard", std::to_string(s)},
                    {"worker", std::to_string(worker_id)}});

    {
      obs::ScopedTimer shard_timer(obs::names::kPublishShard);
      const auto [r0, r1] = plan.shard_range(s);
      shard_timer.attr("shard", s).attr("rows", r1 - r0);
      const graph::ShardRows shard = util::retry_with_backoff(
          opt.io_retry, "shard load",
          [&] { return reader.load_shard(r0, r1); });
      compute_shard_tile(shard, r0, r1, opt.publish, calibration, pool, tile);

      util::fault_point(util::fault_points::kIoShardWrite);
      write_payload_file(shard_payload_path(out_path, s),
                         opt.publish.params, tile);
    }
    // The payload just committed (rename). Flush the truthful record of it
    // — span, counters, done event — BEFORE the second fault site, so a
    // worker killed post-commit leaves a sidecar whose contents match
    // exactly what the coordinator will salvage.
    obs::log_event(obs::names::kEventWorkerShardDone,
                   {{"shard", std::to_string(s)},
                    {"worker", std::to_string(worker_id)}});
    obs::flush_sidecar();
    // Chaos site 2: death after the payload commit but before the done
    // note — the coordinator must salvage the verified payload instead of
    // recomputing it.
    util::fault_point(util::fault_points::kProcWorkerExit);
    progress << with_crc("done " + std::to_string(s)) << '\n';
    progress.flush();
  }
  sampler.stop();
  obs::close_sidecar();
  return 0;
}

}  // namespace sgp::core
