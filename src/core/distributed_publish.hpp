// The shard coordinator: the one publisher of out-of-core releases, with
// zero or more worker processes.
//
// The mechanism is row-separable (core/sharded_publish.hpp), so any process
// can compute any shard. The coordinator writes the release header, then
// fills the release strictly in shard order. A shard's rows come from one of
// two places:
//   - the coordinator itself, which loads and computes the shard
//     (compute_shard) when the fill reaches it and appends the tile. With
//     zero workers — publish_sharded — that is every shard.
//   - a worker process. The coordinator round-robins the shards over N
//     spawned workers (util/subprocess.hpp). Each recomputes the calibration
//     from the same flags, verifies it against the coordinator's config
//     CRC, and commits each tile to a side file `<out>.shard.<crc>.<s>`
//     (written to a temp name and renamed, so existence implies
//     completeness). When the fill reaches the shard and its side file has
//     the exact size, the coordinator streams the file into the release and
//     deletes it.
// Either way the release equals publish_to_stream's bytes for the same
// options, whatever the worker topology or failure history.
//
// The shard log: `<out>.ckpt` holds the magic line "sgp-shard-checkpoint
// v1", a config line tying it to one exact publication, then one
// CRC-guarded record per appended shard, synced through
// util::DurableAppender after the shard's rows are flushed. A rerun with
// the same options keeps the logged prefix when the release still begins
// with this run's header and holds every logged byte, truncates the file
// to it and goes on (publish.shards_resumed); a release replaced or cut
// short starts over. Side files are never trusted across runs: their
// names carry the config CRC, so a file written under other options is
// never opened; the coordinator deletes every side and progress file next
// to the release before it leases a shard and again when the release is
// complete, and every shard past the logged prefix is recomputed. The log
// is deleted once the release is complete.
//
// Failure handling, all observable through obs counters and events:
//   - worker exits uncleanly (crash, SIGKILL, fault injection): every shard
//     it committed is kept; the coordinator reclaims the rest
//     (publish.leases_reclaimed) and respawns a replacement generation for
//     them — bounded by the retry policy's max_attempts generations per
//     worker slot.
//   - worker goes silent (no heartbeat-file growth for
//     lease_timeout_seconds): the coordinator hard-kills it and proceeds as
//     above. The timeout must exceed the worst-case single-shard compute
//     time; heartbeats are written once per shard.
//   - spawn fails (proc.spawn fault point, missing binary) or a slot
//     exhausts its generations: the coordinator computes the slot's shards
//     itself when the fill reaches them. The degenerate case — every spawn
//     failing — is an ordinary single-process publish.
// Log format in docs/scaling.md; failure matrix in docs/robustness.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sharded_publish.hpp"
#include "graph/io.hpp"
#include "util/cli.hpp"
#include "util/retry.hpp"

namespace sgp::core {

/// The most worker processes `sgp_publish --workers` may ask for. A larger
/// count is a usage error before the edge list is scanned.
inline constexpr std::size_t kMaxWorkers = 256;

struct DistributedPublishOptions {
  /// Shard plan, publish knobs, per-worker threads, resume, io retry.
  ShardedPublishOptions sharded;
  /// Worker processes to spawn; 0 = none, the coordinator computes every
  /// shard itself (exactly publish_sharded).
  std::size_t workers = 2;
  /// Path of the worker binary (normally the running sgp_publish itself).
  /// Empty = no workers, whatever `workers` says.
  std::string worker_program;
  /// Edge-list path handed to workers; must name the same file the
  /// coordinator's reader scanned.
  std::string edges_path;
  graph::IdPolicy id_policy = graph::IdPolicy::kCompact;
  /// A worker whose heartbeat file stops growing for this long is presumed
  /// dead and hard-killed. Must exceed worst-case single-shard compute time.
  double lease_timeout_seconds = 30.0;
  /// Coordinator monitor-loop poll cadence.
  double poll_interval_seconds = 0.02;
  /// Generations budget per worker slot (max_attempts) and the backoff
  /// between respawns.
  util::RetryPolicy retry;
  /// Extra environment for generation-0 spawns, keyed by worker slot —
  /// the chaos hook (e.g. {"SGP_FAULT_SPEC", "proc.worker.exit:after=1"}).
  /// Replacement generations spawn clean, mirroring a transient failure.
  std::map<std::size_t, std::vector<std::pair<std::string, std::string>>>
      worker_env;
  /// When non-empty, the cross-process observability plane is on: the
  /// coordinator mints a release trace id, opens its own event sidecar at
  /// `<prefix><pid>.jsonl` (obs/event_log.hpp), and hands every worker
  /// generation the prefix, the trace id and its parent span id via the
  /// SGP_OBS_SIDECAR / SGP_TRACE_ID / SGP_PARENT_SPAN environment variables
  /// so the sidecars merge into one "sgp-obs-report v2" document
  /// (obs/aggregate.hpp). Empty = no sidecars, no env overrides.
  std::string obs_sidecar_prefix;
};

struct DistributedPublishResult {
  std::size_t num_nodes = 0;
  std::size_t shards_total = 0;
  /// Shards kept from a prior run's shard log.
  std::size_t shards_resumed = 0;
  /// Worker processes actually spawned (all generations).
  std::size_t workers_spawned = 0;
  /// Worker processes that exited uncleanly or were presumed dead.
  std::size_t workers_lost = 0;
  /// Shards taken back from dead workers before they committed them.
  std::size_t leases_reclaimed = 0;
  /// Shards the coordinator computed itself (no workers, or fallback).
  std::size_t shards_inprocess = 0;
  /// Release-level trace id (empty unless obs_sidecar_prefix was set).
  std::string trace_id;
};

/// Publishes the graph behind `reader` to `out_path` through the
/// coordinator above. Byte-identical to publish_to_stream with
/// options.sharded.publish. Throws util::PreconditionError on bad options
/// and util::IoError when the release or its log cannot be written (worker
/// failures are absorbed, not thrown). Fault points: "io.shard.write"
/// before each append, "io.shard.checkpoint" before each log record,
/// "proc.spawn"; workers additionally run "proc.worker.exit",
/// "lease.heartbeat", "io.shard.read" and "io.shard.write".
DistributedPublishResult publish_distributed(
    const graph::EdgeListShardReader& reader,
    const DistributedPublishOptions& options, const std::string& out_path);

/// Whether the shard log next to `out_path` belongs to this publication:
/// its config record is the one publish_distributed would write for
/// `options` over `reader` — the same edge-list fingerprint, seed, m,
/// budget, σ and shard height. A ledger-charged rerun finishes the last
/// charged release only then; a log any other run left is no proof that
/// the release was paid for.
[[nodiscard]] bool shard_log_matches(const graph::EdgeListShardReader& reader,
                                     const ShardedPublishOptions& options,
                                     const std::string& out_path);

/// Entry point for the hidden `--worker` mode of sgp_publish: recomputes
/// options from flags, validates --config-crc against its own derivation
/// (exits via ParseError on drift), computes the assigned --shards list and
/// commits each tile to its side file, with a heartbeat per shard. Returns
/// the process exit code (0 on success); IO failures throw and take the
/// tool's usual error paths.
int run_publish_worker(const util::CliArgs& args);

}  // namespace sgp::core
