#include "obs/aggregate.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/errors.hpp"
#include "util/json.hpp"

namespace sgp::obs {
namespace {

std::string jquote(std::string_view s) {
  std::string out;
  util::append_json_string(out, s);
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_string_map(
    const util::JsonValue* obj) {
  std::vector<std::pair<std::string, std::string>> out;
  if (obj == nullptr || !obj->is_object()) return out;
  for (const auto& [key, value] : obj->as_object()) {
    if (value.is_string()) out.emplace_back(key, value.as_string());
  }
  return out;
}

double number_or(const util::JsonValue* v, double fallback) {
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string string_or(const util::JsonValue* v, const std::string& fallback) {
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

void apply_metrics_record(ProcessLog& log, const util::JsonValue& rec) {
  // Snapshots replace: the last full snapshot on disk is the process state.
  log.counters.clear();
  log.gauges.clear();
  log.histograms.clear();
  if (const util::JsonValue* counters = rec.find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, value] : counters->as_object()) {
      if (value.is_number()) {
        log.counters[name] = static_cast<std::uint64_t>(value.as_number());
      }
    }
  }
  if (const util::JsonValue* gauges = rec.find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->as_object()) {
      if (value.is_number()) log.gauges[name] = value.as_number();
    }
  }
  if (const util::JsonValue* hists = rec.find("histograms");
      hists != nullptr && hists->is_object()) {
    for (const auto& [name, value] : hists->as_object()) {
      if (!value.is_object()) continue;
      ProcessHistogram h;
      h.count = static_cast<std::uint64_t>(number_or(value.find("count"), 0));
      h.sum = number_or(value.find("sum"), 0.0);
      const util::JsonValue* buckets = value.find("buckets");
      if (buckets != nullptr && buckets->is_array()) {
        const std::vector<util::JsonValue>& arr = buckets->as_array();
        for (std::size_t b = 0; b < arr.size() && b < Histogram::kBuckets;
             ++b) {
          if (arr[b].is_number()) {
            h.buckets[b] = static_cast<std::uint64_t>(arr[b].as_number());
          }
        }
      }
      log.histograms[name] = h;
    }
  }
}

void apply_span_record(ProcessLog& log, const util::JsonValue& rec) {
  SpanRecord span;
  span.id = static_cast<std::uint64_t>(number_or(rec.find("id"), 0));
  span.parent_id = static_cast<std::uint64_t>(number_or(rec.find("parent"), 0));
  span.name = string_or(rec.find("name"), "");
  span.start_seconds = number_or(rec.find("start"), 0.0);
  span.duration_seconds = number_or(rec.find("duration"), 0.0);
  span.thread = static_cast<std::uint32_t>(number_or(rec.find("thread"), 0));
  span.attrs = parse_string_map(rec.find("attrs"));
  log.spans.push_back(std::move(span));
}

void apply_event_record(ProcessLog& log, const util::JsonValue& rec) {
  EventRecord event;
  event.t = number_or(rec.find("t"), 0.0);
  event.name = string_or(rec.find("name"), "");
  event.fields = parse_string_map(rec.find("fields"));
  log.events.push_back(std::move(event));
}

void apply_process_record(ProcessLog& log, const util::JsonValue& rec) {
  log.pid = static_cast<std::uint64_t>(number_or(rec.find("pid"), 0));
  log.role = string_or(rec.find("role"), "worker");
  log.trace_id = string_or(rec.find("trace_id"), "");
  log.parent_span =
      static_cast<std::uint64_t>(number_or(rec.find("parent_span"), 0));
  log.worker = static_cast<std::int64_t>(number_or(rec.find("worker"), -1));
  log.gen = static_cast<std::int64_t>(number_or(rec.find("gen"), -1));
  log.epoch_unix = number_or(rec.find("epoch_unix"), 0.0);
}

struct MergedEvent {
  EventRecord record;
  std::uint64_t pid = 0;
};

/// One span of the merged forest and, nested, its children; `pids[i]` is
/// the process span i came from.
void append_span_json(std::string& out, const std::vector<SpanRecord>& spans,
                      const std::vector<std::uint64_t>& pids,
                      const std::vector<std::vector<std::size_t>>& children,
                      std::size_t index, int depth) {
  const SpanRecord& s = spans[index];
  const std::string pad(static_cast<std::size_t>(depth) * 2 + 2, ' ');
  out += "{\"name\": " + jquote(s.name);
  out += ", \"start\": " + util::json_number(s.start_seconds);
  out += ", \"duration\": " + util::json_number(s.duration_seconds);
  out += ", \"thread\": " + util::json_number(std::uint64_t{s.thread});
  out += ", \"pid\": " + util::json_number(pids[index]);
  out += ", \"attrs\": {";
  for (std::size_t i = 0; i < s.attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += jquote(s.attrs[i].first) + ": " + jquote(s.attrs[i].second);
  }
  out += "}, \"children\": [";
  for (std::size_t i = 0; i < children[index].size(); ++i) {
    out += i == 0 ? "\n" + pad : ",\n" + pad;
    append_span_json(out, spans, pids, children, children[index][i],
                     depth + 1);
  }
  out += "]}";
}

/// Sparse {le, count} buckets: only non-empty ones, "+Inf" for the
/// overflow bucket.
void append_histogram_json(std::string& out, const ProcessHistogram& h) {
  out += "{\"count\": " + util::json_number(h.count) +
         ", \"sum\": " + util::json_number(h.sum) + ", \"buckets\": [";
  bool first = true;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "{\"le\": ";
    if (b + 1 == Histogram::kBuckets) {
      out += "\"+Inf\"";
    } else {
      out += util::json_number(Histogram::upper_bound(b));
    }
    out += ", \"count\": " + util::json_number(h.buckets[b]) + "}";
  }
  out += "]}";
}

}  // namespace

ProcessHistogram merge_histograms(const ProcessHistogram& a,
                                  const ProcessHistogram& b) {
  ProcessHistogram out;
  out.count = a.count + b.count;
  out.sum = a.sum + b.sum;
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    out.buckets[i] = a.buckets[i] + b.buckets[i];
  }
  return out;
}

ProcessLog read_sidecar(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw util::IoError("obs sidecar: cannot open " + path);
  }
  ProcessLog log;
  bool have_header = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string body;
    if (!crc_unframe(line, body)) {
      // Torn or bit-flipped tail: keep the truthful prefix, stop trusting
      // anything after it.
      log.torn_tail = true;
      break;
    }
    util::JsonValue rec;
    try {
      rec = util::parse_json(body);
    } catch (const util::ParseError&) {
      log.torn_tail = true;
      break;
    }
    if (!rec.is_object()) {
      log.torn_tail = true;
      break;
    }
    const std::string type = string_or(rec.find("type"), "");
    if (type == "process") {
      apply_process_record(log, rec);
      have_header = true;
    } else if (type == "event") {
      apply_event_record(log, rec);
    } else if (type == "span") {
      apply_span_record(log, rec);
    } else if (type == "metrics") {
      apply_metrics_record(log, rec);
    }
    // Unknown record types are skipped (forward compatibility).
  }
  if (!have_header) {
    throw util::IoError("obs sidecar: missing process header in " + path);
  }
  return log;
}

ProcessLog live_process_log(const std::string& role,
                            const std::string& trace_id) {
  ProcessLog log;
  log.pid = sidecar_pid();
  log.role = role;
  log.trace_id = trace_id;
  log.epoch_unix = trace_epoch_unix_seconds();
  log.events = collected_events();
  log.spans = collected_spans();
  const MetricsSnapshot snap = snapshot_metrics();
  for (const auto& [name, value] : snap.counters) log.counters[name] = value;
  for (const auto& [name, value] : snap.gauges) log.gauges[name] = value;
  for (const auto& [name, hist] : snap.histograms) {
    ProcessHistogram h;
    h.count = hist.count;
    h.sum = hist.sum;
    h.buckets = hist.buckets;
    log.histograms[name] = h;
  }
  return log;
}

std::vector<std::string> find_sidecars(const std::string& prefix) {
  namespace fs = std::filesystem;
  const fs::path as_path(prefix);
  fs::path dir = as_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string base = as_path.filename().string();
  const std::string own =
      base + std::to_string(sidecar_pid()) + ".jsonl";
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= base.size() + 6) continue;  // needs pid + ".jsonl"
    if (name.compare(0, base.size(), base) != 0) continue;
    if (name.compare(name.size() - 6, 6, ".jsonl") != 0) continue;
    if (name == own) continue;
    out.push_back((dir / name).string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void write_report_v2(
    std::ostream& out, const std::string& id, const ProcessLog& coordinator,
    const std::vector<ProcessLog>& workers,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  // --- metrics folds -------------------------------------------------------
  std::map<std::string, std::uint64_t> counters = coordinator.counters;
  std::map<std::string, ProcessHistogram> histograms = coordinator.histograms;
  // name -> (representative value, pid -> value)
  std::map<std::string, std::pair<double, std::map<std::uint64_t, double>>>
      gauges;
  for (const auto& [name, value] : coordinator.gauges) {
    gauges[name] = {value, {{coordinator.pid, value}}};
  }
  for (const ProcessLog& w : workers) {
    for (const auto& [name, value] : w.counters) counters[name] += value;
    for (const auto& [name, hist] : w.histograms) {
      const auto it = histograms.find(name);
      if (it == histograms.end()) {
        histograms[name] = hist;
      } else {
        it->second = merge_histograms(it->second, hist);
      }
    }
    for (const auto& [name, value] : w.gauges) {
      const auto it = gauges.find(name);
      if (it == gauges.end()) {
        // Gauge the coordinator never saw: the first process to report it
        // provides the representative value.
        gauges[name] = {value, {{w.pid, value}}};
      } else {
        it->second.second[w.pid] = value;
      }
    }
  }

  // --- span merge ----------------------------------------------------------
  std::vector<SpanRecord> spans = coordinator.spans;
  std::vector<std::uint64_t> span_pids(spans.size(), coordinator.pid);
  std::uint64_t max_id = 0;
  for (const SpanRecord& s : spans) max_id = std::max(max_id, s.id);
  for (const ProcessLog& w : workers) {
    for (const SpanRecord& s : w.spans) max_id = std::max(max_id, s.id);
  }
  std::uint64_t next_id = max_id + 1;
  for (const ProcessLog& w : workers) {
    const double shift = w.epoch_unix - coordinator.epoch_unix;
    std::map<std::uint64_t, std::uint64_t> remap;
    for (const SpanRecord& s : w.spans) remap[s.id] = next_id++;
    for (const SpanRecord& s : w.spans) {
      SpanRecord m = s;
      m.id = remap[s.id];
      if (s.parent_id == 0) {
        m.parent_id = w.parent_span;
      } else {
        const auto it = remap.find(s.parent_id);
        // A parent that never reached the sidecar (killed before its span
        // closed) still anchors the child under the coordinator tree.
        m.parent_id = it == remap.end() ? w.parent_span : it->second;
      }
      m.start_seconds += shift;
      spans.push_back(std::move(m));
      span_pids.push_back(w.pid);
    }
  }

  // --- event merge ---------------------------------------------------------
  std::vector<MergedEvent> events;
  for (const EventRecord& e : coordinator.events) {
    events.push_back({e, coordinator.pid});
  }
  for (const ProcessLog& w : workers) {
    const double shift = w.epoch_unix - coordinator.epoch_unix;
    for (const EventRecord& e : w.events) {
      MergedEvent m{e, w.pid};
      m.record.t += shift;
      events.push_back(std::move(m));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.record.t < b.record.t;
                   });

  std::vector<std::vector<std::size_t>> children;
  const std::vector<std::size_t> roots = build_span_forest(spans, children);

  // --- serialize -----------------------------------------------------------
  std::string buf;
  buf += "{\n\"schema\": " + jquote(kReportV2Schema);
  buf += ",\n\"id\": " + jquote(id);
  buf += ",\n\"trace_id\": " + jquote(coordinator.trace_id);
  buf += ",\n\"meta\": {";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    if (i > 0) buf += ", ";
    buf += jquote(meta[i].first) + ": " + meta[i].second;
  }
  buf += "}";
  buf += ",\n\"processes\": [";
  const auto append_process = [&](const ProcessLog& p, bool first) {
    buf += first ? "\n  " : ",\n  ";
    buf += "{\"pid\": " + util::json_number(p.pid);
    buf += ", \"role\": " + jquote(p.role);
    buf += ", \"worker\": " + util::json_number(static_cast<double>(p.worker));
    buf += ", \"gen\": " + util::json_number(static_cast<double>(p.gen));
    buf += ", \"epoch_offset\": " +
           util::json_number(p.epoch_unix - coordinator.epoch_unix);
    buf += ", \"torn_tail\": ";
    buf += p.torn_tail ? "true" : "false";
    buf += ", \"spans\": " + util::json_number(std::uint64_t{p.spans.size()});
    buf +=
        ", \"events\": " + util::json_number(std::uint64_t{p.events.size()});
    buf += "}";
  };
  append_process(coordinator, true);
  for (const ProcessLog& w : workers) append_process(w, false);
  buf += "\n]";
  buf += ",\n\"phases\": [";
  {
    bool first = true;
    for (const std::size_t root : roots) {
      if (!first) buf += ", ";
      first = false;
      buf += "{\"name\": " + jquote(spans[root].name) + ", \"seconds\": " +
             util::json_number(spans[root].duration_seconds) + "}";
    }
  }
  buf += "],\n\"metrics\": {\n\"counters\": {";
  {
    bool first = true;
    for (const auto& [name, value] : counters) {
      if (!first) buf += ", ";
      first = false;
      buf += jquote(name) + ": " + util::json_number(value);
    }
  }
  buf += "},\n\"gauges\": {";
  {
    bool first = true;
    for (const auto& [name, entry] : gauges) {
      if (!first) buf += ", ";
      first = false;
      buf += jquote(name) + ": {\"value\": " + util::json_number(entry.first) +
             ", \"processes\": {";
      bool pfirst = true;
      for (const auto& [pid, value] : entry.second) {
        if (!pfirst) buf += ", ";
        pfirst = false;
        buf += jquote(std::to_string(pid)) + ": " + util::json_number(value);
      }
      buf += "}}";
    }
  }
  buf += "},\n\"histograms\": {";
  {
    bool first = true;
    for (const auto& [name, hist] : histograms) {
      if (!first) buf += ", ";
      first = false;
      buf += jquote(name) + ": ";
      append_histogram_json(buf, hist);
    }
  }
  buf += "}\n},\n\"events\": [";
  {
    bool first = true;
    for (const MergedEvent& e : events) {
      buf += first ? "\n  " : ",\n  ";
      first = false;
      buf += "{\"t\": " + util::json_number(e.record.t);
      buf += ", \"name\": " + jquote(e.record.name);
      buf += ", \"pid\": " + util::json_number(e.pid);
      buf += ", \"fields\": {";
      for (std::size_t i = 0; i < e.record.fields.size(); ++i) {
        if (i > 0) buf += ", ";
        buf += jquote(e.record.fields[i].first) + ": " +
               jquote(e.record.fields[i].second);
      }
      buf += "}}";
    }
    buf += first ? "]" : "\n]";
  }
  buf += ",\n\"spans\": [";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    buf += i == 0 ? "\n  " : ",\n  ";
    append_span_json(buf, spans, span_pids, children, roots[i], 1);
  }
  buf += roots.empty() ? "]\n}\n" : "\n]\n}\n";
  out << buf;
}

namespace {

std::optional<std::string> check_v2_spans(const util::JsonValue& spans,
                                          const std::string& path) {
  if (!spans.is_array()) return path + ": not an array";
  for (std::size_t i = 0; i < spans.as_array().size(); ++i) {
    const util::JsonValue& span = spans.as_array()[i];
    const std::string here = path + "[" + std::to_string(i) + "]";
    if (!span.is_object()) return here + ": not an object";
    if (span.find("name") == nullptr || !span.find("name")->is_string()) {
      return here + ": missing string 'name'";
    }
    for (const char* field : {"start", "duration", "pid"}) {
      if (span.find(field) == nullptr || !span.find(field)->is_number()) {
        return here + ": missing number '" + std::string(field) + "'";
      }
    }
    const util::JsonValue* children = span.find("children");
    if (children == nullptr) return here + ": missing 'children'";
    if (auto err = check_v2_spans(*children, here + ".children")) return err;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate_report_v2_json(
    const util::JsonValue& doc) {
  if (!doc.is_object()) return "document is not an object";
  const util::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing string 'schema'";
  }
  if (schema->as_string() != kReportV2Schema) {
    return "unknown schema '" + schema->as_string() + "' (expected '" +
           std::string(kReportV2Schema) + "')";
  }
  const util::JsonValue* id = doc.find("id");
  if (id == nullptr || !id->is_string() || id->as_string().empty()) {
    return "missing non-empty string 'id'";
  }
  const util::JsonValue* trace_id = doc.find("trace_id");
  if (trace_id == nullptr || !trace_id->is_string() ||
      trace_id->as_string().empty()) {
    return "missing non-empty string 'trace_id'";
  }
  const util::JsonValue* meta = doc.find("meta");
  if (meta == nullptr || !meta->is_object()) {
    return "missing or non-object 'meta'";
  }
  const util::JsonValue* processes = doc.find("processes");
  if (processes == nullptr || !processes->is_array() ||
      processes->as_array().empty()) {
    return "missing or empty array 'processes'";
  }
  for (std::size_t i = 0; i < processes->as_array().size(); ++i) {
    const util::JsonValue& proc = processes->as_array()[i];
    const std::string here = "processes[" + std::to_string(i) + "]";
    if (!proc.is_object()) return here + ": not an object";
    if (proc.find("pid") == nullptr || !proc.find("pid")->is_number()) {
      return here + ": missing number 'pid'";
    }
    if (proc.find("role") == nullptr || !proc.find("role")->is_string()) {
      return here + ": missing string 'role'";
    }
  }
  const util::JsonValue* phases = doc.find("phases");
  if (phases == nullptr || !phases->is_array()) {
    return "missing or non-array 'phases'";
  }
  for (std::size_t i = 0; i < phases->as_array().size(); ++i) {
    const util::JsonValue& phase = phases->as_array()[i];
    if (!phase.is_object() || phase.find("name") == nullptr ||
        !phase.find("name")->is_string() || phase.find("seconds") == nullptr ||
        !phase.find("seconds")->is_number()) {
      return "phases[" + std::to_string(i) +
             "]: expected {name: string, seconds: number}";
    }
  }
  const util::JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return "missing or non-object 'metrics'";
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const util::JsonValue* block = metrics->find(section);
    if (block == nullptr || !block->is_object()) {
      return std::string("metrics: missing or non-object '") + section + "'";
    }
  }
  for (const auto& [name, value] : metrics->find("counters")->as_object()) {
    if (!value.is_number()) {
      return "metrics.counters." + name + ": not a number";
    }
  }
  for (const auto& [name, value] : metrics->find("gauges")->as_object()) {
    // The v2 gauge contract: explicit per-process readings, never a silent
    // last-write-wins scalar.
    if (!value.is_object() || value.find("value") == nullptr ||
        !value.find("value")->is_number() ||
        value.find("processes") == nullptr ||
        !value.find("processes")->is_object()) {
      return "metrics.gauges." + name + ": expected {value, processes{}}";
    }
    for (const auto& [pid, reading] :
         value.find("processes")->as_object()) {
      if (!reading.is_number()) {
        return "metrics.gauges." + name + ".processes." + pid +
               ": not a number";
      }
    }
  }
  for (const auto& [name, hist] : metrics->find("histograms")->as_object()) {
    if (!hist.is_object() || hist.find("count") == nullptr ||
        !hist.find("count")->is_number() || hist.find("sum") == nullptr ||
        !hist.find("sum")->is_number() || hist.find("buckets") == nullptr ||
        !hist.find("buckets")->is_array()) {
      return "metrics.histograms." + name +
             ": expected {count, sum, buckets[]}";
    }
  }
  const util::JsonValue* events = doc.find("events");
  if (events == nullptr || !events->is_array()) {
    return "missing or non-array 'events'";
  }
  for (std::size_t i = 0; i < events->as_array().size(); ++i) {
    const util::JsonValue& event = events->as_array()[i];
    const std::string here = "events[" + std::to_string(i) + "]";
    if (!event.is_object()) return here + ": not an object";
    if (event.find("name") == nullptr || !event.find("name")->is_string()) {
      return here + ": missing string 'name'";
    }
    for (const char* field : {"t", "pid"}) {
      if (event.find(field) == nullptr || !event.find(field)->is_number()) {
        return here + ": missing number '" + std::string(field) + "'";
      }
    }
    if (event.find("fields") == nullptr ||
        !event.find("fields")->is_object()) {
      return here + ": missing object 'fields'";
    }
  }
  const util::JsonValue* spans = doc.find("spans");
  if (spans == nullptr) return "missing 'spans'";
  return check_v2_spans(*spans, "spans");
}

namespace {

void append_chrome_args_from_strings(
    std::string& out,
    const std::map<std::string, util::JsonValue>& fields) {
  out += "\"args\": {";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!value.is_string()) continue;
    if (!first) out += ", ";
    first = false;
    out += jquote(key) + ": " + jquote(value.as_string());
  }
  out += "}";
}

void append_chrome_span(std::string& out, const util::JsonValue& span,
                        bool& first) {
  if (!span.is_object()) return;
  const util::JsonValue* name = span.find("name");
  const util::JsonValue* start = span.find("start");
  const util::JsonValue* duration = span.find("duration");
  if (name == nullptr || !name->is_string() || start == nullptr ||
      !start->is_number() || duration == nullptr || !duration->is_number()) {
    return;
  }
  if (!first) out += ",\n";
  first = false;
  out += "  {\"name\": " + jquote(name->as_string());
  out += ", \"ph\": \"X\"";
  out += ", \"ts\": " + util::json_number(start->as_number() * 1e6);
  out += ", \"dur\": " +
         util::json_number(std::max(0.0, duration->as_number() * 1e6));
  out += ", \"pid\": " +
         util::json_number(number_or(span.find("pid"), 0));
  out += ", \"tid\": " + util::json_number(number_or(span.find("thread"), 0));
  out += ", ";
  const util::JsonValue* attrs = span.find("attrs");
  static const std::map<std::string, util::JsonValue> kEmpty;
  append_chrome_args_from_strings(
      out, attrs != nullptr && attrs->is_object() ? attrs->as_object()
                                                  : kEmpty);
  out += "}";
  const util::JsonValue* children = span.find("children");
  if (children != nullptr && children->is_array()) {
    for (const util::JsonValue& child : children->as_array()) {
      append_chrome_span(out, child, first);
    }
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const util::JsonValue& report) {
  std::string buf = "{\"traceEvents\": [\n";
  bool first = true;
  // Process-name metadata rows so the timeline labels lanes usefully.
  const util::JsonValue* processes = report.find("processes");
  if (processes != nullptr && processes->is_array()) {
    for (const util::JsonValue& proc : processes->as_array()) {
      if (!proc.is_object()) continue;
      const double pid = number_or(proc.find("pid"), 0);
      const std::string role = string_or(proc.find("role"), "process");
      const double worker = number_or(proc.find("worker"), -1);
      std::string label = role;
      if (worker >= 0) {
        label += " " + util::json_number(worker);
      }
      if (!first) buf += ",\n";
      first = false;
      buf += "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
             util::json_number(pid) + ", \"tid\": 0, \"args\": {\"name\": " +
             jquote(label) + "}}";
    }
  }
  const util::JsonValue* spans = report.find("spans");
  if (spans != nullptr && spans->is_array()) {
    for (const util::JsonValue& span : spans->as_array()) {
      append_chrome_span(buf, span, first);
    }
  }
  const util::JsonValue* events = report.find("events");
  if (events != nullptr && events->is_array()) {
    for (const util::JsonValue& event : events->as_array()) {
      if (!event.is_object()) continue;
      const util::JsonValue* name = event.find("name");
      const util::JsonValue* t = event.find("t");
      if (name == nullptr || !name->is_string() || t == nullptr ||
          !t->is_number()) {
        continue;
      }
      const std::string pid =
          util::json_number(number_or(event.find("pid"), 0));
      const std::string ts = util::json_number(t->as_number() * 1e6);
      const util::JsonValue* fields = event.find("fields");
      static const std::map<std::string, util::JsonValue> kEmpty;
      const std::map<std::string, util::JsonValue>& field_map =
          fields != nullptr && fields->is_object() ? fields->as_object()
                                                   : kEmpty;
      if (!first) buf += ",\n";
      first = false;
      if (name->as_string() == "proc.sample") {
        // Resource samples become counter tracks: numeric fields only.
        buf += "  {\"name\": \"proc\", \"ph\": \"C\", \"ts\": " + ts +
               ", \"pid\": " + pid + ", \"args\": {";
        bool afirst = true;
        for (const auto& [key, value] : field_map) {
          if (!value.is_string()) continue;
          char* end = nullptr;
          const double num = std::strtod(value.as_string().c_str(), &end);
          if (end == value.as_string().c_str()) continue;
          if (!afirst) buf += ", ";
          afirst = false;
          buf += jquote(key) + ": " + util::json_number(num);
        }
        buf += "}}";
      } else {
        buf += "  {\"name\": " + jquote(name->as_string()) +
               ", \"ph\": \"i\", \"ts\": " + ts + ", \"pid\": " + pid +
               ", \"tid\": 0, \"s\": \"p\", ";
        append_chrome_args_from_strings(buf, field_map);
        buf += "}";
      }
    }
  }
  buf += "\n]}\n";
  out << buf;
}

std::optional<std::string> validate_chrome_trace_json(
    const util::JsonValue& doc) {
  if (!doc.is_object()) return "document is not an object";
  const util::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return "missing or non-array 'traceEvents'";
  }
  for (std::size_t i = 0; i < events->as_array().size(); ++i) {
    const util::JsonValue& event = events->as_array()[i];
    const std::string here = "traceEvents[" + std::to_string(i) + "]";
    if (!event.is_object()) return here + ": not an object";
    const util::JsonValue* name = event.find("name");
    if (name == nullptr || !name->is_string()) {
      return here + ": missing string 'name'";
    }
    const util::JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string()) {
      return here + ": missing string 'ph'";
    }
    const std::string& kind = ph->as_string();
    if (kind != "X" && kind != "i" && kind != "M" && kind != "C") {
      return here + ": unsupported phase '" + kind + "'";
    }
    const util::JsonValue* pid = event.find("pid");
    if (pid == nullptr || !pid->is_number()) {
      return here + ": missing number 'pid'";
    }
    if (kind != "M") {
      const util::JsonValue* ts = event.find("ts");
      if (ts == nullptr || !ts->is_number()) {
        return here + ": missing number 'ts'";
      }
    }
    if (kind == "X") {
      const util::JsonValue* dur = event.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->as_number() < 0) {
        return here + ": missing non-negative number 'dur'";
      }
    }
  }
  return std::nullopt;
}

namespace {

struct ShardRow {
  std::string shard;
  double pid = 0;
  double start = 0.0;
  double duration = 0.0;
};

void collect_shard_rows(const util::JsonValue& span,
                        std::vector<ShardRow>& rows) {
  if (!span.is_object()) return;
  const util::JsonValue* name = span.find("name");
  if (name != nullptr && name->is_string() &&
      name->as_string() == "publish.shard") {
    ShardRow row;
    const util::JsonValue* attrs = span.find("attrs");
    if (attrs != nullptr) {
      if (const util::JsonValue* shard = attrs->find("shard");
          shard != nullptr && shard->is_string()) {
        row.shard = shard->as_string();
      }
    }
    row.pid = number_or(span.find("pid"), 0);
    row.start = number_or(span.find("start"), 0.0);
    row.duration = number_or(span.find("duration"), 0.0);
    rows.push_back(std::move(row));
  }
  const util::JsonValue* children = span.find("children");
  if (children != nullptr && children->is_array()) {
    for (const util::JsonValue& child : children->as_array()) {
      collect_shard_rows(child, rows);
    }
  }
}

/// The deepest-latest chain: from the longest root, repeatedly descend into
/// the child whose end time is latest.
void append_critical_path(std::string& out, const util::JsonValue& span,
                          int depth) {
  if (!span.is_object()) return;
  char line[256];
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  std::snprintf(line, sizeof(line), "  %s%-36s %10.4fs\n", indent.c_str(),
                string_or(span.find("name"), "?").c_str(),
                number_or(span.find("duration"), 0.0));
  out += line;
  const util::JsonValue* children = span.find("children");
  if (children == nullptr || !children->is_array() ||
      children->as_array().empty()) {
    return;
  }
  const util::JsonValue* latest = nullptr;
  double latest_end = -1.0;
  for (const util::JsonValue& child : children->as_array()) {
    const double end = number_or(child.find("start"), 0.0) +
                       number_or(child.find("duration"), 0.0);
    if (end > latest_end) {
      latest_end = end;
      latest = &child;
    }
  }
  if (latest != nullptr) append_critical_path(out, *latest, depth + 1);
}

}  // namespace

void write_trace_summary(std::ostream& out, const util::JsonValue& report) {
  std::string buf;
  buf += "trace " + string_or(report.find("trace_id"), "?") + "\n";
  const util::JsonValue* processes = report.find("processes");
  if (processes != nullptr && processes->is_array()) {
    char line[256];
    std::snprintf(line, sizeof(line), "processes: %zu\n",
                  processes->as_array().size());
    buf += line;
    for (const util::JsonValue& proc : processes->as_array()) {
      if (!proc.is_object()) continue;
      std::snprintf(
          line, sizeof(line),
          "  pid %.0f  %-11s worker=%.0f gen=%.0f spans=%.0f events=%.0f%s\n",
          number_or(proc.find("pid"), 0),
          string_or(proc.find("role"), "?").c_str(),
          number_or(proc.find("worker"), -1),
          number_or(proc.find("gen"), -1), number_or(proc.find("spans"), 0),
          number_or(proc.find("events"), 0),
          proc.find("torn_tail") != nullptr &&
                  proc.find("torn_tail")->is_bool() &&
                  proc.find("torn_tail")->as_bool()
              ? "  [torn tail]"
              : "");
      buf += line;
    }
  }

  // Per-shard Gantt over the publish.shard spans.
  std::vector<ShardRow> rows;
  const util::JsonValue* spans = report.find("spans");
  if (spans != nullptr && spans->is_array()) {
    for (const util::JsonValue& span : spans->as_array()) {
      collect_shard_rows(span, rows);
    }
  }
  if (!rows.empty()) {
    std::sort(rows.begin(), rows.end(),
              [](const ShardRow& a, const ShardRow& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.shard < b.shard;
              });
    double t0 = rows.front().start;
    double t1 = t0;
    for (const ShardRow& r : rows) {
      t0 = std::min(t0, r.start);
      t1 = std::max(t1, r.start + r.duration);
    }
    const double span_total = std::max(t1 - t0, 1e-9);
    constexpr int kWidth = 40;
    buf += "\nshard timeline (" + util::json_number(span_total) + "s)\n";
    for (const ShardRow& r : rows) {
      const int begin = static_cast<int>((r.start - t0) / span_total * kWidth);
      int len = static_cast<int>(r.duration / span_total * kWidth + 0.5);
      len = std::max(len, 1);
      len = std::min(len, kWidth - begin);
      std::string bar(static_cast<std::size_t>(kWidth), '.');
      for (int i = begin; i < begin + len && i < kWidth; ++i) bar[i] = '#';
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  shard %-4s [%s] pid %.0f  %8.4fs\n", r.shard.c_str(),
                    bar.c_str(), r.pid, r.duration);
      buf += line;
    }
  }

  // Reclaim gaps: lease.reclaimed -> the same shard's commit.
  const util::JsonValue* events = report.find("events");
  if (events != nullptr && events->is_array()) {
    const std::vector<util::JsonValue>& list = events->as_array();
    bool header = false;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (!list[i].is_object()) continue;
      if (string_or(list[i].find("name"), "") != "lease.reclaimed") continue;
      const util::JsonValue* fields = list[i].find("fields");
      if (fields == nullptr) continue;
      const std::string shard =
          fields->find("shard") != nullptr &&
                  fields->find("shard")->is_string()
              ? fields->find("shard")->as_string()
              : "?";
      const double t_reclaim = number_or(list[i].find("t"), 0.0);
      double t_commit = -1.0;
      for (std::size_t j = i + 1; j < list.size(); ++j) {
        if (!list[j].is_object()) continue;
        if (string_or(list[j].find("name"), "") != "shard.committed") {
          continue;
        }
        const util::JsonValue* cfields = list[j].find("fields");
        if (cfields == nullptr || cfields->find("shard") == nullptr ||
            !cfields->find("shard")->is_string() ||
            cfields->find("shard")->as_string() != shard) {
          continue;
        }
        t_commit = number_or(list[j].find("t"), 0.0);
        break;
      }
      if (!header) {
        buf += "\nreclaim gaps\n";
        header = true;
      }
      char line[256];
      if (t_commit >= 0.0) {
        std::snprintf(line, sizeof(line),
                      "  shard %-4s reclaimed at %8.4fs, recommitted after "
                      "%8.4fs\n",
                      shard.c_str(), t_reclaim, t_commit - t_reclaim);
      } else {
        std::snprintf(line, sizeof(line),
                      "  shard %-4s reclaimed at %8.4fs, never recommitted\n",
                      shard.c_str(), t_reclaim);
      }
      buf += line;
    }
  }

  // Critical path from the longest-running root span.
  if (spans != nullptr && spans->is_array() && !spans->as_array().empty()) {
    const util::JsonValue* longest = nullptr;
    double longest_dur = -1.0;
    for (const util::JsonValue& span : spans->as_array()) {
      const double dur = number_or(span.find("duration"), 0.0);
      if (dur > longest_dur) {
        longest_dur = dur;
        longest = &span;
      }
    }
    if (longest != nullptr) {
      buf += "\ncritical path\n";
      append_critical_path(buf, *longest, 0);
    }
  }
  out << buf;
}

}  // namespace sgp::obs
