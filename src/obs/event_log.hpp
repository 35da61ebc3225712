// Per-process observability sidecar: structured lifecycle events, flushed
// spans, and metric snapshots appended as CRC-framed JSONL records.
//
// The distributed publish (core/distributed_publish.hpp) runs one process
// per worker, and a SIGKILLed worker takes its in-memory metrics registry
// and span collector with it. The event log is the crash-tolerant escape
// hatch: each process appends records to its own sidecar file
// (`<out>.obs.<pid>.jsonl`) through util::DurableAppender, so whatever
// prefix survived the kill is exactly what the process had durably done —
// no more, no less. The coordinator merges every sidecar into one
// "sgp-obs-report v2" document when the run ends (obs/aggregate.hpp).
//
// Record framing reuses the shard log's idiom: each line is
// `<json> crc <8-hex-crc32>`; a torn or bit-flipped trailing line is
// detected and dropped by the reader, never trusted. Record types:
//
//   {"type":"process", "pid":…, "role":"coordinator"|"worker",
//    "trace_id":…, "parent_span":…, "worker":…, "gen":…, "epoch_unix":…}
//   {"type":"event",  "t":…, "name":"shard.committed", "fields":{…}}
//   {"type":"span",   "id":…, "parent":…, "name":…, "start":…,
//    "duration":…, "thread":…, "attrs":{…}}
//   {"type":"metrics","counters":{…}, "gauges":{…},
//    "histograms":{"x":{"count":…,"sum":…,"buckets":[c0,…,c25]}}}
//
// `metrics` records are full snapshots (the last one per process wins at
// merge time): a snapshot is idempotent under replay, which a delta stream
// after a torn tail is not. Histogram buckets travel as the dense
// 26-element count array indexed like obs::Histogram — lossless to merge.
//
// The log is process-global and gated exactly like the metrics registry:
// while metrics are disabled, log_event() costs one relaxed load. Events
// logged before a sidecar is opened are buffered in memory and written out
// by open_sidecar() — the ledger charge, for example, happens before the
// coordinator knows its sidecar path. All sidecar IO is best-effort: a
// failing disk disables the sidecar (with a stderr warning) instead of
// failing the publish it observes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgp::obs {

/// One structured lifecycle event. `t` is seconds on the process trace
/// clock (obs/trace.hpp); fields are flat string key/values, rendered as a
/// JSON object in the sidecar.
struct EventRecord {
  double t = 0.0;
  std::string name;
  std::vector<std::pair<std::string, std::string>> fields;
};

/// Identity block written as the sidecar's `process` header record.
struct SidecarInfo {
  std::string role;           ///< "coordinator" or "worker"
  std::string trace_id;       ///< release-level trace id (coordinator-minted)
  std::uint64_t parent_span = 0;  ///< coordinator span worker roots attach to
  std::int64_t worker = -1;   ///< worker slot id, -1 for the coordinator
  std::int64_t gen = -1;      ///< worker generation, -1 for the coordinator
};

/// Records an event (no-op while metrics are disabled). Thread-safe. When a
/// sidecar is open the record is appended durably before returning; pass
/// `durable = false` for high-rate records (resource samples) that may
/// batch until the next durable write or flush. Never throws — sidecar IO
/// failures disable the sidecar and keep the in-memory mirror.
void log_event(std::string_view name,
               std::vector<std::pair<std::string, std::string>> fields = {},
               bool durable = true);

/// Opens (truncating) the sidecar at `path`, writes the process header and
/// any buffered events, and switches log_event() to write-through.
void open_sidecar(const std::string& path, const SidecarInfo& info);

[[nodiscard]] bool sidecar_open();
[[nodiscard]] std::string sidecar_path();
[[nodiscard]] std::string sidecar_trace_id();

/// Durably appends every span finished since the last flush plus a full
/// metrics snapshot, in one fsynced write. Call at shard boundaries: after
/// this returns, a SIGKILL loses nothing the process had completed.
void flush_sidecar();

/// flush_sidecar() then closes the file. Idempotent.
void close_sidecar();

/// In-memory mirror of every event logged so far (whether or not a sidecar
/// is open), in log order. The coordinator merges from this mirror rather
/// than re-reading its own sidecar.
[[nodiscard]] std::vector<EventRecord> collected_events();

/// Drops buffered events and detaches any open sidecar without flushing.
/// For tests and per-run harness isolation.
void clear_event_log();

/// This process's pid as the sidecar reports it (0 where unavailable).
[[nodiscard]] std::uint64_t sidecar_pid();

/// A fresh 16-hex trace id: wall-clock nanoseconds mixed with the pid
/// through util::splitmix64. Uniqueness across concurrent processes is what
/// matters; this is an identifier, not randomness for the mechanism.
[[nodiscard]] std::string mint_trace_id();

/// CRC framing shared with the sidecar reader (obs/aggregate.hpp):
/// `frame` -> `<body> crc <8-hex-crc32>`; `unframe` validates a line and
/// strips the trailer into `body`, returning false for torn/corrupt lines.
[[nodiscard]] std::string crc_frame(const std::string& body);
[[nodiscard]] bool crc_unframe(const std::string& line, std::string& body);

}  // namespace sgp::obs
