// The "sgp-obs-report v2" writer and validator, and the cross-process
// aggregation behind them: sidecar files in, one document out. The schema
// and its two front doors are described in obs/report.hpp.
//
// The distributed publish leaves one observability sidecar per process
// (obs/event_log.hpp). When the run ends the coordinator folds them — plus
// its own live registry/trace state — into a single merged report; a
// single-process report is the same fold with no workers:
//
//   * counters are summed across processes;
//   * histograms are bucket-merged (dense per-index count addition — an
//     associative, commutative fold, tested as such);
//   * gauges get explicit per-process semantics: each name carries a
//     {"value": v, "processes": {"<pid>": v, …}} object, where `value` is
//     the coordinator's reading when the coordinator has the gauge and the
//     lowest-pid process's otherwise. Nothing is silently last-write-wins:
//     every process's reading is preserved under "processes".
//   * spans are re-parented under the coordinator tree: worker-local span
//     ids are remapped into one id space, worker roots attach to the
//     parent span id the coordinator handed the worker at spawn time, and
//     worker timelines shift by the wall-clock offset between the two
//     process trace epochs;
//   * events merge into one time-ordered stream tagged with the source pid.
//
// The same module renders a report as a Chrome trace-event /
// Perfetto-compatible JSON timeline plus a text summary (per-shard Gantt,
// lease reclaim gaps, critical path) for the sgp_trace tool.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sgp::util {
class JsonValue;
}  // namespace sgp::util

namespace sgp::obs {

inline constexpr std::string_view kReportV2Schema = "sgp-obs-report v2";

/// Histogram state as it travels through sidecars: the dense bucket-count
/// array indexed like obs::Histogram.
struct ProcessHistogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
};

/// Everything one process contributed: identity header, events, flushed
/// spans, and the last metrics snapshot that reached the disk.
struct ProcessLog {
  std::uint64_t pid = 0;
  std::string role;
  std::string trace_id;
  std::uint64_t parent_span = 0;
  std::int64_t worker = -1;
  std::int64_t gen = -1;
  double epoch_unix = 0.0;
  /// True when the sidecar ended in a partial/corrupt record — the truthful
  /// prefix before it is still merged.
  bool torn_tail = false;
  std::vector<EventRecord> events;
  std::vector<SpanRecord> spans;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, ProcessHistogram> histograms;
};

/// Parses a sidecar file, stopping at (and flagging) a torn tail. Throws
/// util::IoError when the file cannot be opened or lacks a process header.
[[nodiscard]] ProcessLog read_sidecar(const std::string& path);

/// Builds a ProcessLog from this process's live registry, span collector,
/// and event mirror — how the coordinator contributes itself to the merge
/// without round-tripping through its own sidecar.
[[nodiscard]] ProcessLog live_process_log(const std::string& role,
                                          const std::string& trace_id);

/// Bucket-merge: element-wise count addition plus sum/count addition.
/// Associative and commutative, so merge order across processes is
/// irrelevant (tested in tests/obs/aggregate_test.cpp).
[[nodiscard]] ProcessHistogram merge_histograms(const ProcessHistogram& a,
                                                const ProcessHistogram& b);

/// Sidecar files `<prefix><pid>.jsonl` present on disk, excluding this
/// process's own (the coordinator merges itself from live state). Sorted.
[[nodiscard]] std::vector<std::string> find_sidecars(
    const std::string& prefix);

/// Serializes the v2 report, the one report writer. `coordinator` anchors
/// the time frame and the span tree; worker logs merge into it as
/// documented above. `meta` becomes the document's "meta" object: each key
/// with its value already rendered as JSON, in order.
void write_report_v2(
    std::ostream& out, const std::string& id, const ProcessLog& coordinator,
    const std::vector<ProcessLog>& workers,
    const std::vector<std::pair<std::string, std::string>>& meta = {});

/// Checks a parsed document against the v2 schema. Returns std::nullopt on
/// success, else a human-readable description of the first violation.
[[nodiscard]] std::optional<std::string> validate_report_v2_json(
    const util::JsonValue& doc);

/// Renders a parsed v2 report as Chrome trace-event JSON
/// ({"traceEvents": […]}): spans as "X" complete events (ts/dur in µs),
/// lifecycle events as "i" instants, resource samples as "C" counters,
/// process names as "M" metadata.
void write_chrome_trace(std::ostream& out, const util::JsonValue& report);

/// Structural check for the Chrome trace JSON write_chrome_trace emits.
[[nodiscard]] std::optional<std::string> validate_chrome_trace_json(
    const util::JsonValue& doc);

/// Human-readable timeline: per-shard Gantt rows, lease reclaim gaps
/// (reclaim event to the shard's commit), and the critical path through
/// the merged span tree.
void write_trace_summary(std::ostream& out, const util::JsonValue& report);

}  // namespace sgp::obs
