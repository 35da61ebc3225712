#include "core/distributed_publish.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
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

constexpr char kLogMagic[] = "sgp-shard-checkpoint v1";

std::string with_crc(const std::string& body) {
  return body + " crc " + util::crc32_hex(body);
}

/// The log's config record, which ties the log and the workers' side files
/// to one exact publication: every knob that changes output bytes or shard
/// boundaries is included, and so is the edge list's fingerprint, so state
/// from a different run or input is never resumed.
std::string shard_config_line(const ShardedPublishOptions& options,
                              const graph::EdgeListShardReader& reader,
                              const ShardPlan& plan) {
  const NoiseCalibration calibration = options.publish.calibration();
  std::ostringstream out;
  out.precision(17);
  out << "config nodes " << reader.num_nodes() << " edges " << std::hex
      << reader.fingerprint() << std::dec << " dim "
      << options.publish.projection_dim
      << " shard_rows " << plan.shard_rows << " seed "
      << options.publish.seed << " epsilon "
      << options.publish.params.epsilon << " delta "
      << options.publish.params.delta << " sigma " << calibration.sigma
      << " sensitivity " << calibration.sensitivity << " projection "
      << to_string(options.publish.projection) << " rng "
      << to_string(projection_rng_for(
             options.publish.projection,
             random::resolve_normal_kernel(options.publish.kernel)));
  return with_crc(out.str());
}

/// The side file a worker commits shard `s` to. The config CRC in the name
/// keeps a file written under other options from ever being opened.
std::string side_file_path(const std::string& out_path,
                           const std::string& config_crc, std::size_t s) {
  return out_path + ".shard." + config_crc + "." + std::to_string(s);
}

std::string progress_path_for(const std::string& out_path, std::size_t worker,
                              std::size_t gen) {
  return out_path + ".w" + std::to_string(worker) + ".g" +
         std::to_string(gen);
}

bool is_digits(std::string_view s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
}

/// Whether `rest` — a file name with the release's name cut off its front —
/// names a file the workers of some run leave: a side file
/// `.shard.<crc>.<s>` or its `.tmp`, or a progress file `.w<slot>.g<gen>`.
bool is_worker_file(std::string_view rest) {
  if (rest.starts_with(".shard.")) {
    rest.remove_prefix(7);
    if (rest.ends_with(".tmp")) rest.remove_suffix(4);
    const auto hex = [](unsigned char c) { return std::isxdigit(c) != 0; };
    return rest.size() > 9 && rest[8] == '.' &&
           std::all_of(rest.begin(), rest.begin() + 8, hex) &&
           is_digits(rest.substr(9));
  }
  if (rest.starts_with(".w")) {
    rest.remove_prefix(2);
    const std::size_t g = rest.find(".g");
    return g != std::string_view::npos && is_digits(rest.substr(0, g)) &&
           is_digits(rest.substr(g + 2));
  }
  return false;
}

/// Deletes every side and progress file next to the release, whatever run
/// or options wrote it: none is ever read across runs.
void remove_worker_files(const std::string& out_path) {
  const std::filesystem::path out(out_path);
  const std::string release = out.filename().string();
  std::vector<std::filesystem::path> stale;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           out.has_parent_path() ? out.parent_path() : ".", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(release) &&
        is_worker_file(std::string_view(name).substr(release.size()))) {
      stale.push_back(entry.path());
    }
  }
  for (const auto& path : stale) std::filesystem::remove(path, ec);
}

/// Bytes of shard `s`'s rows: its side file's size, and its share of the
/// release.
std::uint64_t shard_bytes(const ShardPlan& plan, std::size_t s,
                          std::size_t m) {
  const auto [r0, r1] = plan.shard_range(s);
  return static_cast<std::uint64_t>(r1 - r0) * m * sizeof(double);
}

/// Size of the release file once shards [0, s] are in it.
std::uint64_t release_size_through(const ShardPlan& plan, std::size_t s,
                                   std::uint64_t header_bytes, std::size_t m) {
  return header_bytes +
         static_cast<std::uint64_t>(plan.shard_range(s).second) * m *
             sizeof(double);
}

/// The log record that vouches for shard `s`.
std::string shard_record(const ShardPlan& plan, std::size_t s,
                         std::uint64_t header_bytes, std::size_t m) {
  const auto [r0, r1] = plan.shard_range(s);
  std::ostringstream out;
  out << "shard " << s << " rows " << r0 << " " << r1 << " bytes "
      << release_size_through(plan, s, header_bytes, m);
  return with_crc(out.str());
}

std::string shard_log_path(const std::string& out_path) {
  return out_path + ".ckpt";
}

/// Whether the log open on `in` starts with the magic line and `config`.
bool log_begins_with(std::istream& in, const std::string& config) {
  std::string line;
  return std::getline(in, line) && line == kLogMagic &&
         std::getline(in, line) && line == config;
}

/// Shards a prior run's log at `log_path` vouches for in the release at
/// `out_path`: the longest prefix of records equal to what this run would
/// write — a torn tail, a bit flip (CRC mismatch) or a config drift compare
/// unequal and end it. The release must still begin with this run's
/// `header` and hold every logged byte; a file replaced or cut short is not
/// trusted at all, and the answer is 0.
std::size_t logged_shards(const std::string& log_path,
                          const std::string& config, const ShardPlan& plan,
                          const std::string& header, std::size_t m,
                          const std::string& out_path) {
  std::ifstream in(log_path, std::ios::binary);
  if (!log_begins_with(in, config)) return 0;
  std::string line;
  std::size_t logged = 0;
  while (logged < plan.num_shards() && std::getline(in, line) &&
         line == shard_record(plan, logged, header.size(), m)) {
    ++logged;
  }
  if (logged == 0) return 0;
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(out_path, ec);
  if (ec || size < release_size_through(plan, logged - 1, header.size(), m)) {
    return 0;
  }
  std::ifstream release(out_path, std::ios::binary);
  std::string head(header.size(), '\0');
  release.read(head.data(), static_cast<std::streamsize>(head.size()));
  return release.good() && head == header ? logged : 0;
}

/// Commits a payload tile atomically: write to `<path>.tmp`, flush, rename.
/// The rename is the commit point the coordinator observes. Takes the
/// release's PrivacyParams (and re-validates them) so payload bytes cannot
/// leave through a signature with no privacy context — the sgp-lint R8
/// privacy-flow contract.
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

std::string format_double(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string sidecar_path_for_pid(const std::string& prefix) {
  return prefix + std::to_string(obs::sidecar_pid()) + ".jsonl";
}

}  // namespace

DistributedPublishResult publish_distributed(
    const graph::EdgeListShardReader& reader,
    const DistributedPublishOptions& options, const std::string& out_path) {
  const ShardedPublishOptions& sharded = options.sharded;
  const std::size_t n = reader.num_nodes();
  const std::size_t m = sharded.publish.projection_dim;
  util::require(n >= 1, "shard publish: graph must have nodes");
  util::require(m >= 1 && m <= n,
                "shard publish: projection_dim must be in [1, n]");
  util::require(options.lease_timeout_seconds > 0.0,
                "shard publish: lease timeout must be positive");
  util::require(sharded.io_retry.max_attempts >= 1,
                "shard publish: io retry attempts must be >= 1");
  sharded.publish.params.validate();
  const std::size_t workers =
      options.worker_program.empty() ? 0 : options.workers;

  const ShardPlan plan = plan_shards(n, sharded.shard_rows);
  const NoiseCalibration calibration = sharded.publish.calibration();
  const std::string config = shard_config_line(sharded, reader, plan);
  const std::string config_crc = util::crc32_hex(config);

  // The observability plane: mint the release trace id and open the
  // coordinator's sidecar before any span or lifecycle event fires. The
  // merged v2 report needs the span tree, so tracing is forced on even when
  // the tool only asked for metrics.
  const bool obs_plane = !options.obs_sidecar_prefix.empty();
  std::string trace_id;
  if (obs_plane) {
    trace_id = obs::mint_trace_id();
    obs::set_trace_enabled(true);
    obs::SidecarInfo sidecar_info;
    sidecar_info.role = "coordinator";
    sidecar_info.trace_id = trace_id;
    obs::open_sidecar(sidecar_path_for_pid(options.obs_sidecar_prefix),
                      sidecar_info);
  }

  obs::ScopedTimer timer(workers == 0 ? obs::names::kPublishSharded
                                      : obs::names::kPublishDistributed);
  timer.attr("n", n).attr("m", m).attr("shards", plan.num_shards())
      .attr("workers", workers);
  // The span every worker forest re-attaches under at merge time.
  const std::uint64_t parent_span = obs::current_span_id();
  if (workers > 0) {
    obs::gauge(obs::names::kPublishWorkers).set(static_cast<double>(workers));
  }
  obs::gauge(obs::names::kPublishShardRows)
      .set(static_cast<double>(plan.shard_rows));
  obs::gauge(obs::names::kPublishSigma).set(calibration.sigma);
  obs::gauge(obs::names::kGraphNodes).set(static_cast<double>(n));

  // The header is rendered up front: the log's byte offsets need its size.
  // Its rng tag must name the normal mapping the shard tiles are generated
  // with — the same resolution the workers receive via --kernel.
  std::ostringstream header_out;
  write_published_header(header_out, n, m, sharded.publish.params,
                         calibration, sharded.publish.projection,
                         projection_rng_for(
                             sharded.publish.projection,
                             random::resolve_normal_kernel(
                                 sharded.publish.kernel)));
  const std::string header = header_out.str();

  // Resume: keep the logged prefix the release still holds, cut the file
  // back to it, and fill on from there.
  const std::string log_path = shard_log_path(out_path);
  std::size_t next = 0;  // the first shard not yet in the release
  if (sharded.resume) {
    next = logged_shards(log_path, config, plan, header, m, out_path);
    if (next > 0) {
      std::error_code ec;
      std::filesystem::resize_file(
          out_path, release_size_through(plan, next - 1, header.size(), m),
          ec);
      if (ec) {
        throw util::IoError("shard publish: cannot truncate " + out_path +
                            " to the last logged shard: " + ec.message());
      }
    }
  }

  DistributedPublishResult result;
  result.num_nodes = n;
  result.shards_total = plan.num_shards();
  result.shards_resumed = next;
  result.trace_id = trace_id;
  if (next > 0) {
    obs::counter(obs::names::kPublishShardsResumed).add(next);
    for (std::size_t s = 0; s < next; ++s) {
      obs::log_event(obs::names::kEventShardResumed,
                     {{"shard", std::to_string(s)}});
    }
  }

  std::ofstream out(out_path, next > 0 ? std::ios::binary | std::ios::app
                                       : std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw util::IoError("shard publish: cannot open " + out_path);
  }
  if (next == 0) {
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
  }

  // The log is rewritten up to the resume point (dropping any torn tail),
  // then appended to shard by shard.
  util::DurableAppender log;
  try {
    log.open(log_path, /*truncate=*/true);
    std::string prefix = std::string(kLogMagic) + '\n' + config + '\n';
    for (std::size_t s = 0; s < next; ++s) {
      prefix += shard_record(plan, s, header.size(), m) + '\n';
    }
    log.append(prefix);
  } catch (const util::IoError& e) {
    throw util::IoError("shard publish: shard log write failed: " +
                        std::string(e.what()));
  }

  std::optional<util::ThreadPool> local_pool;
  if (sharded.threads > 0) local_pool.emplace(sharded.threads);
  util::ThreadPool& pool = local_pool ? *local_pool : util::global_pool();

  static obs::Counter& shards_done = obs::counter(obs::names::kPublishShards);
  static obs::Counter& reclaimed_ctr =
      obs::counter(obs::names::kPublishLeasesReclaimed);

  // The one way a shard enters the release: its rows, flushed, then the log
  // record that vouches for them, synced. A record never precedes its rows,
  // and resume trusts the log only while the file holds every logged byte.
  auto append = [&](const auto& write_rows) {
    util::fault_point(util::fault_points::kIoShardWrite);
    write_rows();
    out.flush();
    if (!out.good()) {
      throw util::IoError("shard publish: write failed on shard " +
                          std::to_string(next) + " of " + out_path);
    }
    util::fault_point(util::fault_points::kIoShardCheckpoint);
    log.append_line(shard_record(plan, next, header.size(), m));
    shards_done.add();
    obs::log_event(obs::names::kEventShardCommitted,
                   {{"shard", std::to_string(next)},
                    {"bytes", std::to_string(shard_bytes(plan, next, m))}});
    ++next;
  };

  // Where the rows of each shard past `next` come from: the coordinator
  // computes its own shards when the fill reaches them; a leased shard waits
  // for its worker; a committed one has a complete side file.
  enum class Source : unsigned char { kOwn, kLeased, kCommitted };
  std::vector<Source> source(plan.num_shards(), Source::kOwn);

  std::vector<double> tile;
  // Appends shards in order until one is still leased to a worker.
  auto fill = [&] {
    while (next < plan.num_shards() && source[next] != Source::kLeased) {
      if (source[next] == Source::kOwn) {
        compute_shard(reader, sharded, calibration, plan, next, pool, tile);
        ++result.shards_inprocess;
        append([&] { write_published_doubles(out, tile); });
      } else {
        const std::string path = side_file_path(out_path, config_crc, next);
        {
          std::ifstream rows(path, std::ios::binary);
          append([&] { out << rows.rdbuf(); });
        }
        std::error_code ec;
        std::filesystem::remove(path, ec);
      }
    }
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
               format_double(sharded.publish.params.epsilon),
               "--delta",
               format_double(sharded.publish.params.delta),
               "--delta-split",
               format_double(sharded.publish.delta_split),
               "--seed",
               std::to_string(sharded.publish.seed),
               "--projection",
               to_string(sharded.publish.projection),
               // The coordinator resolves the kernel once and hands workers
               // the resolved name, so a worker can never re-resolve kAuto
               // differently (its environment is not trusted to match).
               "--kernel",
               std::string(random::to_string(
                   random::resolve_normal_kernel(sharded.publish.kernel))),
               "--shard-rows",
               std::to_string(plan.shard_rows),
               "--threads",
               std::to_string(sharded.threads),
               "--io-attempts",
               std::to_string(sharded.io_retry.max_attempts)};
    std::string csv;
    for (std::size_t s : slot.pending) {
      if (!csv.empty()) csv += ',';
      csv += std::to_string(s);
    }
    sp.argv.push_back("--shards");
    sp.argv.push_back(csv);
    if (!sharded.publish.analytic_calibration) {
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
      obs::log_event(obs::names::kEventShardLeased,
                     {{"shard", std::to_string(s)},
                      {"worker", std::to_string(slot.id)},
                      {"gen", std::to_string(slot.gen)}});
    }
    return true;
  };

  // Spawn (or re-spawn) a slot; once its generation budget is spent, its
  // shards fall back to the coordinator — the release always completes,
  // whatever the workers do.
  auto spawn_or_fallback = [&](Slot& slot) {
    while (!slot.pending.empty() && slot.spawn_attempts < spawn_budget) {
      ++slot.spawn_attempts;
      if (try_spawn(slot)) return;
      util::sleep_for_seconds(
          util::retry_backoff_seconds(options.retry, slot.spawn_attempts));
    }
    for (std::size_t s : slot.pending) {
      source[s] = Source::kOwn;
      obs::log_event(obs::names::kEventLeaseReclaimed,
                     {{"shard", std::to_string(s)},
                      {"worker", std::to_string(slot.id)},
                      {"reason", "spawn"}});
    }
    slot.pending.clear();
  };

  // A worker's shard is committed once its side file exists with the exact
  // size: the rename is the commit, never an exit code or a progress claim.
  auto harvest = [&](Slot& slot) {
    for (auto it = slot.pending.begin(); it != slot.pending.end();) {
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(
          side_file_path(out_path, config_crc, *it), ec);
      if (!ec && size == shard_bytes(plan, *it, m)) {
        source[*it] = Source::kCommitted;
        it = slot.pending.erase(it);
        slot.last_activity = std::chrono::steady_clock::now();
      } else {
        ++it;
      }
    }
  };

  auto monitor = [&](Slot& slot) {
    if (!slot.proc) return;
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
      // One more harvest: a side-file rename can race the exit we just
      // observed, and a worker killed between the rename and its done note
      // (the second proc.worker.exit site) left committed work.
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
      // Presumed dead: no side file landed and the heartbeat file stopped
      // growing. Kill hard; the next poll reaps it as unclean.
      slot.timed_out = true;
      slot.proc->kill_hard();
    }
  };

  // Side and progress files of earlier runs are never trusted: every shard
  // past the logged prefix is recomputed.
  remove_worker_files(out_path);
  if (workers > 0) {
    for (std::size_t s = next; s < plan.num_shards(); ++s) {
      slots[(s - next) % workers].pending.push_back(s);
      source[s] = Source::kLeased;
    }
    for (std::size_t w = 0; w < workers; ++w) {
      slots[w].id = w;
      spawn_or_fallback(slots[w]);
    }
  }

  // Poll the workers and fill the release until every shard is in and every
  // worker has exited.
  for (;;) {
    bool any_live = false;
    for (Slot& slot : slots) {
      monitor(slot);
      any_live = any_live || slot.proc.has_value();
    }
    const std::size_t filled = next;
    fill();
    if (!any_live) break;
    if (next == filled) util::sleep_for_seconds(options.poll_interval_seconds);
  }
  SGP_CHECK(next == plan.num_shards(),
            "shard publish: finished with shards missing from the release");

  out.close();
  if (!out.good()) {
    throw util::IoError("shard publish: close failed on " + out_path);
  }
  log.close();
  // Publication is complete; drop the log and every file the workers used.
  std::error_code ec;
  std::filesystem::remove(log_path, ec);
  remove_worker_files(out_path);
  return result;
}

bool shard_log_matches(const graph::EdgeListShardReader& reader,
                       const ShardedPublishOptions& options,
                       const std::string& out_path) {
  const std::string config = shard_config_line(
      options, reader, plan_shards(reader.num_nodes(), options.shard_rows));
  std::ifstream in(shard_log_path(out_path), std::ios::binary);
  return log_begins_with(in, config);
}

int run_publish_worker(const util::CliArgs& args) {
  const std::string edges_path = args.get_string("edges", "");
  const std::string out_path = args.get_string("out", "");
  util::require(!edges_path.empty() && !out_path.empty(),
                "worker: --edges and --out are required");

  ShardedPublishOptions opt;
  opt.publish.projection_dim =
      static_cast<std::size_t>(args.get_uint64("dim", 100));
  opt.publish.params = {args.get_double("epsilon", 1.0),
                        args.get_double("delta", 1e-6)};
  opt.publish.seed = args.get_uint64("seed", 7);
  opt.publish.projection =
      parse_projection_kind(args.get_string("projection", "gaussian"));
  opt.publish.kernel =
      random::parse_kernel_variant(args.get_string("kernel", "auto"));
  opt.publish.analytic_calibration = !args.get_bool("no-analytic", false);
  opt.publish.delta_split =
      args.get_double("delta-split", dp::kDefaultDeltaSplit);
  opt.shard_rows = static_cast<std::size_t>(args.get_uint64("shard-rows", 0));
  opt.threads = static_cast<std::size_t>(
      args.get_uint64("threads", 0, util::kMaxThreads));
  opt.io_retry.max_attempts =
      static_cast<std::size_t>(args.get_uint64("io-attempts", 1));

  const auto policy = args.get_bool("preserve-ids", false)
                          ? graph::IdPolicy::kPreserve
                          : graph::IdPolicy::kCompact;
  const graph::EdgeListShardReader reader(edges_path, policy);
  const ShardPlan plan = plan_shards(reader.num_nodes(), opt.shard_rows);
  const NoiseCalibration calibration = opt.publish.calibration();

  // Drift guard: the coordinator hands over the CRC of its config record;
  // a worker whose own derivation disagrees would publish different bytes,
  // so it must refuse rather than contribute a payload.
  const std::string config = shard_config_line(opt, reader, plan);
  const std::string derived_crc = util::crc32_hex(config);
  const std::string expected_crc = args.get_string("config-crc", "");
  if (expected_crc != derived_crc) {
    throw util::ParseError("worker: config drift (coordinator crc '" +
                           expected_crc + "', worker crc '" + derived_crc +
                           "')");
  }

  const std::size_t worker_id =
      static_cast<std::size_t>(args.get_uint64("worker-id", 0));
  const std::size_t gen = static_cast<std::size_t>(args.get_uint64("gen", 0));

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
  args.reject_unread();

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

    compute_shard(reader, opt, calibration, plan, s, pool, tile);
    util::fault_point(util::fault_points::kIoShardWrite);
    write_payload_file(side_file_path(out_path, derived_crc, s),
                       opt.publish.params, tile);
    // The payload just committed (rename). Flush the truthful record of it
    // — span, counters, done event — BEFORE the second fault site, so a
    // worker killed post-commit leaves a sidecar whose contents match
    // exactly what the coordinator will salvage.
    obs::log_event(obs::names::kEventWorkerShardDone,
                   {{"shard", std::to_string(s)},
                    {"worker", std::to_string(worker_id)}});
    obs::flush_sidecar();
    // Chaos site 2: death after the payload commit but before the done
    // note — the coordinator must keep the committed payload instead of
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
