#include "core/sharded_publish.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "core/projection.hpp"
#include "core/serialization.hpp"
#include "core/theory.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "random/kernel_variant.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/durable.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/retry.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {
namespace {

constexpr char kCheckpointMagic[] = "sgp-shard-checkpoint v1";

std::string with_crc(const std::string& body) {
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", util::crc32(body));
  return body + " crc " + crc_hex;
}

std::string shard_line(std::size_t shard, std::size_t row_begin,
                       std::size_t row_end, std::uint64_t bytes) {
  std::ostringstream out;
  out << "shard " << shard << " rows " << row_begin << " " << row_end
      << " bytes " << bytes;
  return with_crc(out.str());
}

/// Number of shards proven complete by `ckpt_path`, given the expected
/// line-for-line content of a checkpoint for this exact run. Every record is
/// deterministic, so validation is exact string comparison — a torn tail,
/// a bit flip (CRC mismatch) or a config drift all compare unequal and stop
/// the scan at the last trustworthy shard. Returns 0 when nothing usable.
std::size_t completed_shards_in(const std::string& ckpt_path,
                                const std::string& config,
                                const ShardPlan& plan,
                                std::uint64_t header_bytes, std::size_t m) {
  std::ifstream in(ckpt_path, std::ios::binary);
  if (!in.good()) return 0;
  std::string line;
  if (!std::getline(in, line) || line != kCheckpointMagic) return 0;
  if (!std::getline(in, line) || line != config) return 0;
  std::size_t completed = 0;
  while (completed < plan.num_shards() && std::getline(in, line)) {
    const auto [r0, r1] = plan.shard_range(completed);
    const std::uint64_t bytes =
        header_bytes + static_cast<std::uint64_t>(r1) * m * sizeof(double);
    if (line != shard_line(completed, r0, r1, bytes)) break;
    ++completed;
  }
  return completed;
}

}  // namespace

std::string shard_config_line(const ShardedPublishOptions& options,
                              std::size_t num_nodes,
                              std::size_t projection_dim,
                              const NoiseCalibration& calibration,
                              const ShardPlan& plan) {
  std::ostringstream out;
  out.precision(17);
  out << "config nodes " << num_nodes << " dim " << projection_dim
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

void compute_shard_tile(const graph::ShardRows& shard, std::size_t row_begin,
                        std::size_t row_end,
                        const RandomProjectionPublisher::Options& publish,
                        const NoiseCalibration& calibration,
                        util::ThreadPool& pool, std::vector<double>& tile) {
  tile.assign((row_end - row_begin) * publish.projection_dim, 0.0);
  const RowsBySource index = transpose_rows(
      row_begin, row_end, [&shard](std::size_t i) { return shard.neighbors(i); });
  publish_rows(index.view(), row_begin, row_end, publish, calibration, pool,
               tile);
}

ShardPlan plan_shards(std::size_t num_rows, std::size_t shard_rows) {
  ShardPlan plan;
  plan.num_rows = num_rows;
  plan.shard_rows =
      shard_rows == 0 ? std::max<std::size_t>(num_rows, 1) : shard_rows;
  return plan;
}

std::size_t shard_rows_for_memory(std::size_t max_memory_mb,
                                  std::size_t projection_dim) {
  util::require(projection_dim >= 1,
                "shard_rows_for_memory: projection_dim must be >= 1");
  const std::size_t tile_budget = max_memory_mb * (1ULL << 20) / 2;
  return std::max<std::size_t>(1, tile_budget / (projection_dim * sizeof(double)));
}

ShardedPublishResult publish_sharded(const graph::EdgeListShardReader& reader,
                                     const ShardedPublishOptions& options,
                                     const std::string& out_path) {
  const std::size_t n = reader.num_nodes();
  const std::size_t m = options.publish.projection_dim;
  util::require(n >= 1, "publish_sharded: graph must have nodes");
  util::require(m >= 1 && m <= n,
                "publish_sharded: projection_dim must be in [1, n]");
  options.publish.params.validate();

  const ShardPlan plan = plan_shards(n, options.shard_rows);
  const NoiseCalibration calibration = calibrate_noise(
      m, options.publish.params, options.publish.analytic_calibration,
      options.publish.delta_split);

  obs::ScopedTimer timer(obs::names::kPublishSharded);
  timer.attr("n", n).attr("m", m).attr("shards", plan.num_shards());
  obs::gauge(obs::names::kPublishShardRows)
      .set(static_cast<double>(plan.shard_rows));
  obs::gauge(obs::names::kPublishSigma).set(calibration.sigma);
  obs::gauge(obs::names::kGraphNodes).set(static_cast<double>(n));

  // Header bytes are needed for checkpoint offsets before anything is
  // written; rendering through the shared encoder keeps them exact.
  std::ostringstream header;
  write_published_header(header, n, m, options.publish.params, calibration,
                         options.publish.projection,
                         projection_rng_for(
                             options.publish.projection,
                             random::resolve_normal_kernel(options.publish.kernel)));
  const std::string header_bytes = header.str();

  const std::string ckpt_path = out_path + ".ckpt";
  const std::string config =
      shard_config_line(options, n, m, calibration, plan);

  std::size_t completed = 0;
  if (options.resume) {
    completed = completed_shards_in(ckpt_path, config, plan,
                                    header_bytes.size(), m);
    if (completed > 0) {
      // The release file must still hold every byte the checkpoint vouches
      // for; anything shorter means it was replaced or truncated → restart.
      const auto [r0, r1] = plan.shard_range(completed - 1);
      const std::uint64_t bytes =
          header_bytes.size() +
          static_cast<std::uint64_t>(r1) * m * sizeof(double);
      std::error_code ec;
      const auto size = std::filesystem::file_size(out_path, ec);
      if (ec || size < bytes) {
        completed = 0;
      } else {
        std::filesystem::resize_file(out_path, bytes, ec);
        if (ec) {
          throw util::IoError("publish_sharded: cannot truncate " + out_path +
                              " to the last complete shard: " + ec.message());
        }
      }
    }
  }
  if (completed > 0) {
    obs::counter(obs::names::kPublishShardsResumed).add(completed);
  }

  std::ofstream out;
  if (completed > 0) {
    out.open(out_path, std::ios::binary | std::ios::app);
  } else {
    out.open(out_path, std::ios::binary | std::ios::trunc);
  }
  if (!out.good()) {
    throw util::IoError("publish_sharded: cannot open " + out_path);
  }
  if (completed == 0) {
    out.write(header_bytes.data(),
              static_cast<std::streamsize>(header_bytes.size()));
  }

  // The checkpoint log is rewritten up to the resume point (dropping any
  // torn tail), then appended to shard by shard. Records are appended only
  // after the shard's payload bytes are down, and each append fsyncs
  // (util::DurableAppender) — a machine crash can therefore never leave a
  // record the resume path trusts while the payload bytes it vouches for
  // were still in the page cache.
  util::DurableAppender ckpt;
  try {
    ckpt.open(ckpt_path, /*truncate=*/true);
    std::string prefix = std::string(kCheckpointMagic) + '\n' + config + '\n';
    for (std::size_t s = 0; s < completed; ++s) {
      const auto [r0, r1] = plan.shard_range(s);
      const std::uint64_t bytes =
          header_bytes.size() +
          static_cast<std::uint64_t>(r1) * m * sizeof(double);
      prefix += shard_line(s, r0, r1, bytes) + '\n';
    }
    ckpt.append(prefix);
  } catch (const util::IoError& e) {
    throw util::IoError("publish_sharded: checkpoint write failed: " +
                        std::string(e.what()));
  }

  std::optional<util::ThreadPool> local_pool;
  if (options.threads > 0) local_pool.emplace(options.threads);
  util::ThreadPool& pool =
      local_pool ? *local_pool : util::global_pool();

  static obs::Counter& shards_done = obs::counter(obs::names::kPublishShards);

  std::vector<double> tile;
  for (std::size_t s = completed; s < plan.num_shards(); ++s) {
    const auto [r0, r1] = plan.shard_range(s);
    obs::ScopedTimer shard_timer(obs::names::kPublishShard);
    shard_timer.attr("shard", s).attr("rows", r1 - r0);

    // Loading a shard is idempotent (a fresh pass over the edge list), so
    // a transient read failure — the io.shard.read fault point — is safely
    // retried under the configured policy.
    const graph::ShardRows shard = util::retry_with_backoff(
        options.io_retry, "shard load",
        [&] { return reader.load_shard(r0, r1); });
    compute_shard_tile(shard, r0, r1, options.publish, calibration, pool,
                       tile);

    util::fault_point(util::fault_points::kIoShardWrite);
    write_published_doubles(out, tile);
    out.flush();
    if (!out.good()) {
      throw util::IoError("publish_sharded: write failed on shard " +
                          std::to_string(s) + " of " + out_path);
    }

    util::fault_point(util::fault_points::kIoShardCheckpoint);
    const std::uint64_t bytes =
        header_bytes.size() + static_cast<std::uint64_t>(r1) * m * sizeof(double);
    ckpt.append_line(shard_line(s, r0, r1, bytes));
    shards_done.add();
  }

  out.close();
  if (!out.good()) {
    throw util::IoError("publish_sharded: close failed on " + out_path);
  }
  ckpt.close();
  // Publication is complete; the checkpoint has nothing left to vouch for.
  std::error_code ec;
  std::filesystem::remove(ckpt_path, ec);

  ShardedPublishResult result;
  result.num_nodes = n;
  result.shards_total = plan.num_shards();
  result.shards_resumed = completed;
  result.calibration = calibration;
  return result;
}

}  // namespace sgp::core
