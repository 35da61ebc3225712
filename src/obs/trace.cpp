#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <ostream>

#include "util/json.hpp"

namespace sgp::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// Steady and wall clocks sampled at the same instant, so relative span
/// times can be re-anchored onto Unix time across processes.
struct TraceEpoch {
  Clock::time_point steady;
  double unix_seconds;
};

const TraceEpoch& trace_epoch_pair() {
  static const TraceEpoch epoch = [] {
    TraceEpoch e;
    e.steady = Clock::now();
    e.unix_seconds = std::chrono::duration<double>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
    return e;
  }();
  return epoch;
}

Clock::time_point trace_epoch() { return trace_epoch_pair().steady; }

std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint32_t> g_next_thread_id{0};

std::uint32_t this_thread_trace_id() {
  thread_local const std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Stack of open span ids on this thread; the top is the parent of the next
// span opened here.
thread_local std::vector<std::uint64_t> t_span_stack;

struct Collector {
  std::mutex mutex;
  std::vector<SpanRecord> spans;
};

Collector& collector() {
  static Collector instance;
  return instance;
}

std::string format_double(double v) { return util::json_number(v); }

void append_span_text(std::string& out, const std::vector<SpanRecord>& spans,
                      const std::vector<std::vector<std::size_t>>& children,
                      std::size_t index, int depth) {
  const SpanRecord& r = spans[index];
  char line[256];
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  std::snprintf(line, sizeof(line), "%-40s %10.4fs",
                (indent + r.name).c_str(), r.duration_seconds);
  out += line;
  for (const auto& [key, value] : r.attrs) {
    out += "  " + key + "=" + value;
  }
  out += '\n';
  for (const std::size_t child : children[index]) {
    append_span_text(out, spans, children, child, depth + 1);
  }
}

}  // namespace

void set_trace_enabled(bool on) noexcept {
  if (on) trace_epoch();  // pin the epoch before the first span
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

double trace_clock_seconds() {
  return std::chrono::duration<double>(Clock::now() - trace_epoch()).count();
}

double trace_epoch_unix_seconds() { return trace_epoch_pair().unix_seconds; }

std::uint64_t current_span_id() {
  return t_span_stack.empty() ? 0 : t_span_stack.back();
}

Span::Span(std::string_view name) {
  if (!trace_enabled()) return;
  active_ = true;
  record_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent_id = t_span_stack.empty() ? 0 : t_span_stack.back();
  record_.name = std::string(name);
  record_.thread = this_thread_trace_id();
  t_span_stack.push_back(record_.id);
  start_ = trace_clock_seconds();
  record_.start_seconds = start_;
}

void Span::close() {
  if (!active_) return;
  active_ = false;
  record_.duration_seconds = trace_clock_seconds() - start_;
  // Pop this span (and anything a missing close() above us leaked).
  while (!t_span_stack.empty()) {
    const std::uint64_t top = t_span_stack.back();
    t_span_stack.pop_back();
    if (top == record_.id) break;
  }
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.spans.push_back(std::move(record_));
}

void Span::attr(std::string_view key, std::string_view value) {
  if (!active_) return;
  record_.attrs.emplace_back(std::string(key), std::string(value));
}

void Span::attr(std::string_view key, const char* value) {
  attr(key, std::string_view(value));
}

void Span::attr(std::string_view key, std::int64_t value) {
  if (!active_) return;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  record_.attrs.emplace_back(std::string(key), buf);
}

void Span::attr(std::string_view key, std::uint64_t value) {
  if (!active_) return;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  record_.attrs.emplace_back(std::string(key), buf);
}

void Span::attr(std::string_view key, double value) {
  if (!active_) return;
  record_.attrs.emplace_back(std::string(key), format_double(value));
}

std::vector<SpanRecord> collected_spans() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return c.spans;
}

void clear_spans() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.spans.clear();
}

std::vector<std::size_t> build_span_forest(
    const std::vector<SpanRecord>& spans,
    std::vector<std::vector<std::size_t>>& children) {
  children.assign(spans.size(), {});
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return spans[a].start_seconds < spans[b].start_seconds;
                   });
  // Map id -> index for parent lookup.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_id(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[i] = {spans[i].id, i};
  std::sort(by_id.begin(), by_id.end());
  std::vector<std::size_t> roots;
  for (const std::size_t i : order) {
    const std::uint64_t parent = spans[i].parent_id;
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(), std::make_pair(parent, std::size_t{0}));
    if (parent == 0 || it == by_id.end() || it->first != parent) {
      // Root, or a parent not among `spans` (one that closed before a
      // clear_spans(), say) — treat as root.
      roots.push_back(i);
    } else {
      children[it->second].push_back(i);
    }
  }
  return roots;
}

void write_trace_text(std::ostream& out) {
  const std::vector<SpanRecord> spans = collected_spans();
  std::vector<std::vector<std::size_t>> children;
  const std::vector<std::size_t> roots = build_span_forest(spans, children);
  std::string buf;
  for (const std::size_t root : roots) {
    append_span_text(buf, spans, children, root, 0);
  }
  out << buf;
}

}  // namespace sgp::obs
