// Out-of-core shard-parallel publication.
//
// The mechanism is row-separable: published row i is
//   Ỹ_i = Σ_{j∈N(i)} P_j + σ·N_i,
// and with counter-based generation (core/projection.hpp) both P rows and
// the noise are pure functions of (seed, counter) — no state flows between
// rows. Publication therefore decomposes into independent row shards: stream
// shard rows from the edge list (graph/shard_loader.hpp), transpose them by
// source, push each row of P the shard touches once through publish_rows
// (core/publisher.hpp), append the tile to the release stream, repeat.
// Working memory is O(rows_per_shard·m + n + |E_shard|) instead of O(n·m),
// and the output is byte-identical to publish_to_stream for every shard
// size and thread count (enforced by tests/core/sharded_publish_test.cpp,
// tests/core/publish_rows_test.cpp and the slow differential matrix).
//
// publish_sharded is the shard coordinator (core/distributed_publish.hpp)
// with zero workers: it appends the shards in order and logs each one in
// `<out>.ckpt`, so a crash mid-release resumes at the last logged shard
// with the same bytes as an uninterrupted run. The log is deleted once the
// release is complete.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/publisher.hpp"
#include "graph/shard_loader.hpp"
#include "util/check.hpp"
#include "util/retry.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {

/// Partition of the row range [0, num_rows) into consecutive half-open
/// shards of `shard_rows` rows (the last shard may be smaller).
struct ShardPlan {
  std::size_t num_rows = 0;
  std::size_t shard_rows = 1;

  [[nodiscard]] std::size_t num_shards() const {
    // 1 + (num_rows-1)/shard_rows is the overflow-free form of the ceil
    // division: the naive (num_rows + shard_rows - 1) wraps for
    // adversarially large shard_rows (e.g. the shard_rows == num_rows
    // single-shard plan when num_rows > SIZE_MAX/2).
    SGP_REQUIRE(shard_rows >= 1, "ShardPlan: shard_rows must be >= 1");
    return num_rows == 0 ? 0 : 1 + (num_rows - 1) / shard_rows;
  }

  /// Row range [begin, end) of shard `s`. Requires s < num_shards() —
  /// which also makes the s·shard_rows product overflow-free, since the
  /// begin of any valid shard is at most num_rows − 1.
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
      std::size_t s) const {
    SGP_REQUIRE(s < num_shards(), "ShardPlan: shard index out of range");
    const std::size_t begin = s * shard_rows;
    return {begin, begin + std::min(num_rows - begin, shard_rows)};
  }
};

/// Builds a plan. `shard_rows == 0` means "one shard covering everything"
/// (and a plan over zero rows has zero shards either way).
[[nodiscard]] ShardPlan plan_shards(std::size_t num_rows,
                                    std::size_t shard_rows);

/// Derives a shard height from a memory budget: half the budget is reserved
/// for the shard's output tile (shard_rows·m·8 bytes), the other half
/// absorbs the shard's adjacency lists, their transpose by source and
/// per-thread scratch — so
///   shard_rows = max(1, (max_memory_mb·2^20 / 2) / (8·m)).
/// The transpose's n + 1 offsets are an O(n) term the budget does not
/// bound, like the kCompact remap. Documented in docs/scaling.md; the
/// property tests pin the bound.
[[nodiscard]] std::size_t shard_rows_for_memory(std::size_t max_memory_mb,
                                                std::size_t projection_dim);

struct ShardedPublishOptions {
  /// Same knobs as the in-memory path — seed, m, budget, projection kind.
  RandomProjectionPublisher::Options publish;
  /// Rows per shard; 0 = single shard (still out-of-core loaded).
  std::size_t shard_rows = 0;
  /// Worker threads for the per-shard row loop; 0 = the global pool.
  std::size_t threads = 0;
  /// Consult the shard log `<out>.ckpt` and resume after the last logged
  /// shard when the log matches these options. Off = always start fresh.
  bool resume = true;
  /// Retry policy for the transiently-failing IO steps (shard loads — the
  /// `io.shard.read` fault point; re-loading is idempotent). The default
  /// max_attempts == 1 preserves fail-fast semantics; the distributed
  /// coordinator/worker mode raises it.
  util::RetryPolicy io_retry{.max_attempts = 1};
};

struct ShardedPublishResult {
  std::size_t num_nodes = 0;
  std::size_t shards_total = 0;
  /// Shards skipped because a matching shard log proved them complete.
  std::size_t shards_resumed = 0;
};

/// Publishes the graph behind `reader` to `out_path` shard by shard: the
/// shard coordinator (publish_distributed) with zero workers. The release
/// file is byte-identical to publish_to_stream over read_edge_list of the
/// same file with the same options. Throws util::PreconditionError on bad
/// options and util::IoError on IO failure (fault points: "io.shard.read",
/// "io.shard.write", "io.shard.checkpoint").
ShardedPublishResult publish_sharded(const graph::EdgeListShardReader& reader,
                                     const ShardedPublishOptions& options,
                                     const std::string& out_path);

/// Computes the published tile for rows [row_begin, row_end) — exactly the
/// bytes publish_to_stream would emit for those rows. The shard's rows are
/// transposed by source (transpose_rows: n + 1 offsets plus one 4-byte row
/// id per neighbor entry), and publish_rows draws each row of P the shard
/// touches once — at most one per neighbor entry — then adds σ-scaled
/// counter noise. Both are pure functions of (seed, counter), so the
/// caller's process/shard/thread topology cannot change a bit. `tile` is
/// resized to (row_end − row_begin)·m.
void compute_shard_tile(const graph::ShardRows& shard, std::size_t row_begin,
                        std::size_t row_end,
                        const RandomProjectionPublisher::Options& publish,
                        const NoiseCalibration& calibration,
                        util::ThreadPool& pool, std::vector<double>& tile);

/// The shard step the coordinator and its workers share: loads shard `s` of
/// `plan` from `reader` on `pool` — retried under options.io_retry, since a
/// reload is a fresh pass over the edge list — and computes its tile with
/// compute_shard_tile, inside one publish.shard span.
void compute_shard(const graph::EdgeListShardReader& reader,
                   const ShardedPublishOptions& options,
                   const NoiseCalibration& calibration, const ShardPlan& plan,
                   std::size_t s, util::ThreadPool& pool,
                   std::vector<double>& tile);

}  // namespace sgp::core
