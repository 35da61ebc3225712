#include "obs/event_log.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/durable.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"
#include "util/splitmix.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace sgp::obs {
namespace {

struct LogState {
  std::mutex mutex;
  std::vector<EventRecord> events;
  util::DurableAppender sidecar;
  SidecarInfo info;
  std::string path;
  /// Rendered records not yet handed to the appender (non-durable events
  /// batch here until the next durable write).
  std::string pending;
  /// collected_spans() high-water mark: spans below it are already on disk.
  std::size_t spans_flushed = 0;
};

LogState& state() {
  static LogState instance;
  return instance;
}

std::uint64_t this_pid() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

void append_fields_json(std::string& out,
                        const std::vector<std::pair<std::string, std::string>>&
                            fields) {
  out += '{';
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    util::append_json_string(out, fields[i].first);
    out += ": ";
    util::append_json_string(out, fields[i].second);
  }
  out += '}';
}

std::string render_event(const EventRecord& e) {
  std::string body = "{\"type\": \"event\", \"t\": " + util::json_number(e.t) +
                     ", \"name\": ";
  util::append_json_string(body, e.name);
  body += ", \"fields\": ";
  append_fields_json(body, e.fields);
  body += '}';
  return body;
}

std::string render_process_header(const SidecarInfo& info) {
  std::string body = "{\"type\": \"process\", \"pid\": " +
                     util::json_number(this_pid()) + ", \"role\": ";
  util::append_json_string(body, info.role);
  body += ", \"trace_id\": ";
  util::append_json_string(body, info.trace_id);
  body += ", \"parent_span\": " + util::json_number(info.parent_span);
  body += ", \"worker\": " +
          util::json_number(static_cast<double>(info.worker));
  body += ", \"gen\": " + util::json_number(static_cast<double>(info.gen));
  body += ", \"epoch_unix\": " + util::json_number(trace_epoch_unix_seconds());
  body += '}';
  return body;
}

std::string render_span(const SpanRecord& s) {
  std::string body = "{\"type\": \"span\", \"id\": " + util::json_number(s.id) +
                     ", \"parent\": " + util::json_number(s.parent_id) +
                     ", \"name\": ";
  util::append_json_string(body, s.name);
  body += ", \"start\": " + util::json_number(s.start_seconds);
  body += ", \"duration\": " + util::json_number(s.duration_seconds);
  body += ", \"thread\": " + util::json_number(std::uint64_t{s.thread});
  body += ", \"attrs\": ";
  append_fields_json(body, s.attrs);
  body += '}';
  return body;
}

std::string render_metrics_snapshot() {
  const MetricsSnapshot snap = snapshot_metrics();
  std::string body = "{\"type\": \"metrics\", \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) body += ", ";
    util::append_json_string(body, snap.counters[i].first);
    body += ": " + util::json_number(snap.counters[i].second);
  }
  body += "}, \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) body += ", ";
    util::append_json_string(body, snap.gauges[i].first);
    body += ": " + util::json_number(snap.gauges[i].second);
  }
  body += "}, \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    if (i > 0) body += ", ";
    util::append_json_string(body, snap.histograms[i].first);
    const Histogram::Snapshot& h = snap.histograms[i].second;
    body += ": {\"count\": " + util::json_number(h.count) +
            ", \"sum\": " + util::json_number(h.sum) + ", \"buckets\": [";
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (b > 0) body += ", ";
      body += util::json_number(h.buckets[b]);
    }
    body += "]}";
  }
  body += "}}";
  return body;
}

/// Hands `s.pending` to the appender. Caller holds the mutex. An IO failure
/// detaches the sidecar (warn once, keep the in-memory mirror) — the
/// observability plane must never fail the publish it observes.
void write_pending_locked(LogState& s) {
  if (!s.sidecar.is_open() || s.pending.empty()) return;
  try {
    s.sidecar.append(s.pending);
    s.pending.clear();
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "warning: obs sidecar disabled: %s\n", e.what());
    s.pending.clear();
    try {
      s.sidecar.close();
    } catch (const util::IoError&) {
      // Already degrading; nothing further to report.
    }
  }
}

/// Renders span records for every span finished since the last flush plus a
/// metrics snapshot into `s.pending`. Caller holds the mutex.
void stage_spans_and_metrics_locked(LogState& s) {
  const std::vector<SpanRecord> spans = collected_spans();
  for (std::size_t i = s.spans_flushed; i < spans.size(); ++i) {
    s.pending += crc_frame(render_span(spans[i])) + '\n';
  }
  s.spans_flushed = spans.size();
  s.pending += crc_frame(render_metrics_snapshot()) + '\n';
}

}  // namespace

std::string crc_frame(const std::string& body) {
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", util::crc32(body));
  return body + " crc " + hex;
}

bool crc_unframe(const std::string& line, std::string& body) {
  const std::size_t pos = line.rfind(" crc ");
  if (pos == std::string::npos) return false;
  body = line.substr(0, pos);
  return crc_frame(body) == line;
}

void log_event(std::string_view name,
               std::vector<std::pair<std::string, std::string>> fields,
               bool durable) {
  if (!metrics_enabled()) return;
  static Counter& events_ctr = counter(names::kObsEvents);
  events_ctr.add();
  EventRecord record;
  record.t = trace_clock_seconds();
  record.name = std::string(name);
  record.fields = std::move(fields);

  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.sidecar.is_open()) {
    s.pending += crc_frame(render_event(record)) + '\n';
    if (durable) write_pending_locked(s);
  }
  s.events.push_back(std::move(record));
}

void open_sidecar(const std::string& path, const SidecarInfo& info) {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  try {
    s.sidecar.open(path, /*truncate=*/true);
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "warning: cannot open obs sidecar: %s\n", e.what());
    return;
  }
  s.info = info;
  s.path = path;
  s.spans_flushed = 0;
  s.pending = crc_frame(render_process_header(info)) + '\n';
  // Events logged before the path was known (e.g. the ledger charge) are
  // part of this process's record; replay them behind the header.
  for (const EventRecord& e : s.events) {
    s.pending += crc_frame(render_event(e)) + '\n';
  }
  write_pending_locked(s);
}

bool sidecar_open() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.sidecar.is_open();
}

std::string sidecar_path() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.sidecar.is_open() ? s.path : std::string();
}

std::string sidecar_trace_id() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.info.trace_id;
}

void flush_sidecar() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.sidecar.is_open()) return;
  stage_spans_and_metrics_locked(s);
  write_pending_locked(s);
}

void close_sidecar() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.sidecar.is_open()) return;
  stage_spans_and_metrics_locked(s);
  write_pending_locked(s);
  try {
    s.sidecar.close();
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "warning: obs sidecar close failed: %s\n", e.what());
  }
}

std::vector<EventRecord> collected_events() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.events;
}

void clear_event_log() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.events.clear();
  s.pending.clear();
  s.spans_flushed = 0;
  s.info = SidecarInfo{};
  s.path.clear();
  try {
    s.sidecar.close();
  } catch (const util::IoError&) {
    // Test-isolation path; the file is about to be discarded anyway.
  }
}

std::uint64_t sidecar_pid() { return this_pid(); }

std::string mint_trace_id() {
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  const std::uint64_t mixed = util::splitmix64(
      static_cast<std::uint64_t>(nanos) ^ (this_pid() << 32));
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(mixed));
  return hex;
}

}  // namespace sgp::obs
