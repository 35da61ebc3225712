// Hierarchical RAII trace spans.
//
// A Span measures one region of work. Spans opened while another span is
// live *on the same thread* become its children (each thread keeps its own
// span stack; work handed to thread_pool workers starts a new root on that
// worker — cross-thread parenting is intentionally not inferred). Finished
// spans land in a process-wide collector; build_span_forest() turns them
// into the parent/child tree the report (obs/report.hpp) and the --trace
// text render.
//
// Like the metrics registry, tracing is compiled in but gated: while
// trace_enabled() is false a Span is inert and construction costs one
// relaxed atomic load, so library code can open spans unconditionally.
//
//   obs::Span span("publish.project");
//   span.attr("rows", n);
//   ... work ...
//   // destructor records the span
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgp::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// Global trace gate, independent of the metrics gate.
inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool on) noexcept;

/// A finished span as stored by the collector. Times are seconds relative
/// to the process trace epoch (first touch of the trace clock).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  std::uint32_t thread = 0;  ///< small sequential id, not the OS tid
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Span {
 public:
  /// Opens a span named `name` (no-op while tracing is disabled).
  explicit Span(std::string_view name);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key=value attribute (no-op on an inert or closed span).
  void attr(std::string_view key, std::string_view value);
  void attr(std::string_view key, const char* value);
  void attr(std::string_view key, std::int64_t value);
  void attr(std::string_view key, std::uint64_t value);
  void attr(std::string_view key, double value);

  /// Ends the span now (idempotent; the destructor calls it too).
  void close();

  /// Whether this span is live and recording (false when tracing was off at
  /// construction or after close()).
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
  double start_ = 0.0;
  SpanRecord record_;
};

/// All spans finished so far, in completion order. Thread-safe.
[[nodiscard]] std::vector<SpanRecord> collected_spans();

/// Drops every collected span (open spans are unaffected and will still be
/// recorded when they close). For tests and per-run harness isolation.
void clear_spans();

/// Seconds since the trace epoch — the clock Span uses internally.
[[nodiscard]] double trace_clock_seconds();

/// Unix time (seconds since 1970, system clock) of the trace epoch. Spans
/// and events carry times relative to the per-process epoch; this anchor
/// lets the cross-process aggregator (obs/aggregate.hpp) shift worker
/// timelines into the coordinator's frame.
[[nodiscard]] double trace_epoch_unix_seconds();

/// Id of the innermost span open on the calling thread, or 0 when none is.
/// The distributed coordinator passes this to workers as the parent under
/// which their span forests are re-attached at merge time.
[[nodiscard]] std::uint64_t current_span_id();

/// The span forest over `spans`, as indexes into it: fills children[i] with
/// span i's children and returns the roots. A span whose parent is 0 or not
/// among `spans` is a root. Roots and siblings are ordered by start time.
[[nodiscard]] std::vector<std::size_t> build_span_forest(
    const std::vector<SpanRecord>& spans,
    std::vector<std::vector<std::size_t>>& children);

/// Human-readable indented tree ("--trace" output), one span per line:
///   publish                         1.234s
///     publish.project               0.801s  rows=5000 cols=100
void write_trace_text(std::ostream& out);

}  // namespace sgp::obs
