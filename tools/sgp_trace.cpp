// sgp_trace — timeline inspection for observability reports.
//
//   sgp_trace --report report.json [--chrome trace.json] [--summary]
//   sgp_trace --validate-chrome trace.json
//
// Reads an "sgp-obs-report v2" document (obs/report.hpp) — any report the
// repo writes: a tool's --metrics-out file, a BENCH_<id>.json, or the merged
// cross-process report of `sgp_publish --workers N --metrics-out` —
// validates it against the schema, and renders:
//
//   --chrome <path>   Chrome trace-event / Perfetto-compatible JSON: spans
//                     as complete ("X") events laned by pid/thread,
//                     lifecycle events as instants, resource samples as
//                     counter tracks. Load in chrome://tracing or
//                     ui.perfetto.dev.
//   --summary         human-readable timeline on stdout: per-process
//                     inventory, a per-shard Gantt chart, lease reclaim
//                     gaps (reclaim -> recommit), and the critical path
//                     through the span tree.
//
// With neither flag the report is validated and acknowledged — the
// schema-check mode CI uses. --validate-chrome structurally checks a Chrome
// trace file (the counterpart of sgp_bench_check for timeline exports) and
// shares its exit-code contract: 0 ok, 3 on the first invalid file. The two
// modes are exclusive, and a flag the chosen mode does not read exits 2.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/aggregate.hpp"
#include "tool_common.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"

namespace {

sgp::util::JsonValue parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw sgp::util::IoError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return sgp::util::parse_json(buf.str());
}

}  // namespace

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const std::string validate_chrome = args.get_string("validate-chrome", "");
  const std::string report_path =
      validate_chrome.empty() ? args.get_string("report", "") : std::string();
  if (report_path.empty() && validate_chrome.empty()) {
    std::fprintf(stderr,
                 "usage: %s --report report.json "
                 "[--chrome trace.json] [--summary]\n"
                 "       %s --validate-chrome trace.json\n",
                 args.program().c_str(), args.program().c_str());
    return sgp::tools::kExitUsage;
  }
  return sgp::tools::run_tool([&]() -> int {
    if (!validate_chrome.empty()) {
      args.reject_unread();
      const sgp::util::JsonValue doc = parse_file(validate_chrome);
      if (const auto err = sgp::obs::validate_chrome_trace_json(doc)) {
        throw sgp::util::ParseError(validate_chrome + ": " + *err);
      }
      std::fprintf(stderr, "%s: ok\n", validate_chrome.c_str());
      return sgp::tools::kExitOk;
    }

    const std::string chrome_path = args.get_string("chrome", "");
    const bool summary = args.get_bool("summary", false);
    args.reject_unread();

    const sgp::util::JsonValue report = parse_file(report_path);
    if (const auto err = sgp::obs::validate_report_v2_json(report)) {
      throw sgp::util::ParseError(report_path + ": " + *err);
    }
    if (!chrome_path.empty()) {
      std::ofstream out(chrome_path, std::ios::binary | std::ios::trunc);
      if (!out.good()) {
        throw sgp::util::IoError("cannot open " + chrome_path);
      }
      sgp::obs::write_chrome_trace(out, report);
      out.flush();
      if (!out.good()) {
        throw sgp::util::IoError("failed writing " + chrome_path);
      }
      std::fprintf(stderr, "chrome trace written to %s\n",
                   chrome_path.c_str());
    }
    if (summary) {
      sgp::obs::write_trace_summary(std::cout, report);
    }
    if (chrome_path.empty() && !summary) {
      std::fprintf(stderr, "%s: ok\n", report_path.c_str());
    }
    return sgp::tools::kExitOk;
  });
}
