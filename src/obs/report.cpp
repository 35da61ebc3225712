#include "obs/report.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/aggregate.hpp"
#include "obs/event_log.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"

namespace sgp::obs {
namespace {

std::string quoted(std::string_view s) {
  std::string out;
  util::append_json_string(out, s);
  return out;
}

/// Opens `path` (truncating), lets `render` write the report, and checks
/// that every byte reached the file.
template <typename Render>
void write_report_file(const std::string& path, Render render) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw util::IoError("report: cannot open " + path);
  }
  render(out);
  out.flush();
  if (!out.good()) {
    throw util::IoError("report: failed writing " + path);
  }
}

}  // namespace

Report& Report::meta(std::string_view key, std::string_view value) {
  meta_.emplace_back(std::string(key), quoted(value));
  return *this;
}

Report& Report::meta(std::string_view key, const char* value) {
  return meta(key, std::string_view(value));
}

Report& Report::meta(std::string_view key, double value) {
  meta_.emplace_back(std::string(key), util::json_number(value));
  return *this;
}

Report& Report::meta(std::string_view key, std::int64_t value) {
  meta_.emplace_back(std::string(key),
                     util::json_number(static_cast<double>(value)));
  return *this;
}

Report& Report::meta(std::string_view key, std::uint64_t value) {
  meta_.emplace_back(std::string(key), util::json_number(value));
  return *this;
}

Report& Report::meta(std::string_view key, bool value) {
  meta_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

void Report::write(std::ostream& out) const {
  write_report_v2(out, id_, live_process_log("coordinator", mint_trace_id()),
                  {}, meta_);
}

void Report::write_file(const std::string& path) const {
  write_report_file(path, [this](std::ostream& out) { write(out); });
}

void write_merged_report_file(const std::string& path, const std::string& id,
                              const std::string& sidecar_prefix,
                              const std::string& trace_id) {
  // An empty prefix would match every *.jsonl in the working directory.
  util::require(!sidecar_prefix.empty(),
                "write_merged_report_file: sidecar prefix must be non-empty");
  const ProcessLog coordinator = live_process_log("coordinator", trace_id);
  const std::vector<std::string> sidecar_files = find_sidecars(sidecar_prefix);
  std::vector<ProcessLog> workers;
  for (const std::string& file : sidecar_files) {
    try {
      workers.push_back(read_sidecar(file));
    } catch (const util::IoError& e) {
      std::fprintf(stderr, "warning: skipping obs sidecar: %s\n", e.what());
    }
  }
  write_report_file(path, [&](std::ostream& out) {
    write_report_v2(out, id, coordinator, workers);
  });
  // The merged report now holds everything the sidecars did; only after the
  // successful write do the sidecars (including our own) stop being needed
  // for postmortems.
  std::error_code ec;
  for (const std::string& file : sidecar_files) {
    std::filesystem::remove(file, ec);
  }
  std::filesystem::remove(
      sidecar_prefix + std::to_string(sidecar_pid()) + ".jsonl", ec);
}

}  // namespace sgp::obs
