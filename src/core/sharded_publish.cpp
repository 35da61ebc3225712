#include "core/sharded_publish.hpp"

#include <algorithm>
#include <vector>

#include "core/distributed_publish.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/retry.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {

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

void compute_shard(const graph::EdgeListShardReader& reader,
                   const ShardedPublishOptions& options,
                   const NoiseCalibration& calibration, const ShardPlan& plan,
                   std::size_t s, util::ThreadPool& pool,
                   std::vector<double>& tile) {
  const auto [r0, r1] = plan.shard_range(s);
  obs::ScopedTimer shard_timer(obs::names::kPublishShard);
  shard_timer.attr("shard", s).attr("rows", r1 - r0);
  const graph::ShardRows shard = util::retry_with_backoff(
      options.io_retry, "shard load",
      [&] { return reader.load_shard(r0, r1, pool); });
  compute_shard_tile(shard, r0, r1, options.publish, calibration, pool, tile);
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
  DistributedPublishOptions coordinator;
  coordinator.sharded = options;
  coordinator.workers = 0;
  const DistributedPublishResult done =
      publish_distributed(reader, coordinator, out_path);
  ShardedPublishResult result;
  result.num_nodes = done.num_nodes;
  result.shards_total = done.shards_total;
  result.shards_resumed = done.shards_resumed;
  return result;
}

}  // namespace sgp::core
