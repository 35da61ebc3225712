// The observability report: one JSON document per run, schema
// "sgp-obs-report v2", behind `--metrics-out` on the sgp_* tools, the
// BENCH_<id>.json files the bench harness emits, and the distributed
// publish's merged report alike:
//
//   {
//     "schema": "sgp-obs-report v2",
//     "id": "E7",
//     "trace_id": "3f9a…",              (16 hex digits)
//     "meta": {"nodes": 4000, "epsilon": 1.0, ...},
//     "processes": [{"pid": …, "role": "coordinator", …}, …],
//     "phases": [{"name": "publish", "seconds": 1.23}, ...],
//     "metrics": {"counters": {...}, "gauges": {"x": {"value": v,
//                 "processes": {"<pid>": v}}}, "histograms": {...}},
//     "events": [...],
//     "spans": [...]
//   }
//
// "meta" holds only the caller's fields. "phases" lists the root spans in
// start order (name + duration), so consumers that only want coarse
// timings need not walk the span tree. The first process entry is the one
// that wrote the report.
//
// There are two front doors and one writer (write_report_v2,
// obs/aggregate.hpp): Report writes a single-process report — one process
// entry, a freshly minted trace id, and no sidecar is read — and
// write_merged_report_file() folds a distributed run's worker sidecars into
// the coordinator's. validate_report_v2_json (obs/aggregate.hpp) checks
// either; tools/sgp_bench_check and tools/sgp_trace read either.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgp::obs {

class Report {
 public:
  explicit Report(std::string id) : id_(std::move(id)) {}

  /// Adds one metadata field (ε, δ, m, graph size, dataset name, ...).
  /// Values render as JSON numbers/strings/bools; insertion order is kept.
  Report& meta(std::string_view key, std::string_view value);
  Report& meta(std::string_view key, const char* value);
  Report& meta(std::string_view key, double value);
  Report& meta(std::string_view key, std::int64_t value);
  Report& meta(std::string_view key, std::uint64_t value);
  Report& meta(std::string_view key, bool value);

  /// Serializes this process's report from the *current* registry, span
  /// collector and event log.
  void write(std::ostream& out) const;

  /// write() to `path` (truncating). Throws util::IoError on failure.
  void write_file(const std::string& path) const;

 private:
  std::string id_;
  // Pre-rendered JSON fragments, so meta() stays allocation-simple.
  std::vector<std::pair<std::string, std::string>> meta_;
};

/// The distributed front door: merges live coordinator state with every
/// sidecar under `sidecar_prefix` (which must be non-empty), writes the
/// report to `path`, and — only after a successful write — deletes the
/// consumed sidecars (they survive any earlier crash for postmortem reads).
/// Throws util::IoError on write failure.
void write_merged_report_file(const std::string& path, const std::string& id,
                              const std::string& sidecar_prefix,
                              const std::string& trace_id);

}  // namespace sgp::obs
