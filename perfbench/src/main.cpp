// sgp_perfbench: one workload of the repository benchmark, run in one
// process linked against the sgp library.
//
//   sgp_perfbench --workload NAME --op inmem|sharded|analyst
//                 --seed N --seconds S --trace 0|1 --workdir DIR
//                 <input and release parameters>
//
// perfbench/run.py builds this binary and passes the workload table's row
// as flags. The run is a closed loop with one client: set up a few times,
// then run ops back to back for S seconds, each op starting when the
// previous one returned and its outputs were checked (checks are not
// timed). With --trace 0 the last stdout line carries the end-to-end
// values; with --trace 1 ops alternate between tracing off and on, and it
// carries the per-layer values of the traced ops plus the tracing overhead.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "obs/metric_names.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace sgp::perfbench {
namespace {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// "median 1.234 s (p25 .., p75 .., min .., max .., n=7)", plus the highest
/// of p90/p95/p99 that has at least ten samples above it.
std::string describe_timing(const std::vector<double>& v) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "median %.4f s (p25 %.4f, p75 %.4f, min %.4f, max %.4f",
                median(v), quantile(v, 0.25), quantile(v, 0.75),
                quantile(v, 0.0), quantile(v, 1.0));
  std::string out = buf;
  for (const double q : {0.99, 0.95, 0.90}) {
    if ((1.0 - q) * static_cast<double>(v.size()) >= 10.0) {
      std::snprintf(buf, sizeof buf, ", p%.0f %.4f", q * 100, quantile(v, q));
      out += buf;
      break;
    }
  }
  return out + ", n=" + std::to_string(v.size()) + ")";
}

/// Set-ups per run: at least kMinSetups, and more until kSetupSeconds of
/// set-up have passed, so a short set-up takes its median over more samples.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupSeconds = 5.0;

/// Layer that owns a library span opened inside a driver call of another
/// layer, for the layer table. Every other span belongs to the layer of the
/// span around it.
std::string library_span_layer(const std::string& name) {
  static const std::map<std::string, std::string, std::less<>> kLayer = {
      {std::string(obs::names::kIoReadShard), "graph"},
      {std::string(obs::names::kPublishProject), "linalg"},
      {std::string(obs::names::kPublishPerturb), "random"},
  };
  const auto it = kLayer.find(name);
  return it == kLayer.end() ? "" : it->second;
}

struct LayerRow {
  std::string layer;
  double seconds = 0.0;
};

/// Self time of every span under the op's root span, grouped into rows:
/// one row per driver call ("bench.<layer>.<call>"), one per library span
/// of another layer than the call around it, and "unattributed" for the
/// op's time outside every driver call. Self times partition the root
/// span, so the rows add up to the op's wall time by construction.
void add_layer_rows(const std::vector<obs::SpanRecord>& spans,
                    std::map<std::string, LayerRow>& rows) {
  const auto root = std::find_if(spans.begin(), spans.end(), [](const auto& s) {
    return s.name == "bench.op";
  });
  if (root == spans.end()) return;
  std::map<std::uint64_t, std::vector<const obs::SpanRecord*>> children;
  for (const obs::SpanRecord& s : spans) {
    if (s.thread == root->thread && s.parent_id != 0) {
      children[s.parent_id].push_back(&s);
    }
  }
  const auto walk = [&](const auto& self, const obs::SpanRecord& s,
                        std::string key, std::string layer) -> void {
    if (&s == &*root) {
      key = "unattributed";
      layer = "-";
    } else if (s.name.rfind("bench.", 0) == 0) {
      key = s.name.substr(6);
      layer = key.substr(0, key.find('.'));
    } else if (const std::string owner = library_span_layer(s.name);
               !owner.empty() && owner != layer) {
      key = s.name;
      layer = owner;
    }
    double self_time = s.duration_seconds;
    for (const obs::SpanRecord* c : children[s.id]) {
      self_time -= c->duration_seconds;
    }
    LayerRow& row = rows[key];
    row.layer = layer;
    row.seconds += self_time;
    for (const obs::SpanRecord* c : children[s.id]) self(self, *c, key, layer);
  };
  walk(walk, *root, "", "");
}

void print_layer_table(const std::vector<const OpRecord*>& traced) {
  if (traced.empty()) return;
  std::map<std::string, LayerRow> rows;
  double wall = 0.0;
  for (const OpRecord* rec : traced) {
    add_layer_rows(rec->spans, rows);
    wall += rec->wall_s;
  }
  const double count = static_cast<double>(traced.size());
  std::vector<std::pair<std::string, LayerRow>> sorted(rows.begin(),
                                                       rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.seconds > b.second.seconds;
  });
  double total = 0.0;
  for (const auto& [key, row] : sorted) total += row.seconds;
  std::printf("layer table, mean of %zu traced ops:\n", traced.size());
  std::printf("  %-8s %-34s %10s %7s\n", "layer", "row", "seconds", "share");
  for (const auto& [key, row] : sorted) {
    std::printf("  %-8s %-34s %10.4f %6.1f%%\n", row.layer.c_str(),
                key.c_str(), row.seconds / count,
                total > 0.0 ? 100.0 * row.seconds / total : 0.0);
  }
  std::printf("  %-8s %-34s %10.4f\n", "", "sum of rows (root span)",
              total / count);
  std::printf("  %-8s %-34s %10.4f\n", "", "op wall (driver clock)",
              wall / count);
  std::string largest;
  for (const auto& [key, row] : sorted) {
    if (key != "unattributed") {
      largest = key;
      break;
    }
  }
  std::printf("  largest attributed row: %s\n", largest.c_str());
}

OpRecord run_op(Workload& workload, bool traced) {
  OpRecord rec;
  rec.traced = traced;
  obs::clear_spans();
  obs::set_trace_enabled(traced);
  reset_peak_rss();
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t read0 = read_chars();
  const double t0 = now_seconds();
  try {
    obs::Span root("bench.op");
    workload.op(rec);
  } catch (const std::exception& e) {
    rec.error = std::string("op threw: ") + e.what();
  }
  rec.wall_s = now_seconds() - t0;
  rec.cpu_s = process_cpu_seconds() - cpu0;
  rec.read_bytes = read_chars() - read0;
  rec.peak_rss_mb = peak_rss_mb();
  obs::set_trace_enabled(false);
  if (traced) rec.spans = obs::collected_spans();
  obs::clear_spans();
  if (rec.error.empty()) {
    try {
      rec.error = workload.check();
    } catch (const std::exception& e) {
      rec.error = std::string("check threw: ") + e.what();
    }
  }
  return rec;
}

/// The last stdout line: {"correct", "attempted", "failed", "values"}, with
/// values a name -> number map. run.py turns it into the result line with
/// the metric names, order and units of BENCHMARK.json.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + util::json_number(std::uint64_t{attempted});
  out += ", \"failed\": " + util::json_number(std::uint64_t{failed});
  out += ", \"values\": {";
  const char* sep = "";
  for (const auto& [name, value] : values) {
    out += sep;
    sep = ", ";
    util::append_json_string(out, name);
    char number[40];
    std::snprintf(number, sizeof number, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out += std::string(": ") + number;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

WorkloadParams parse_params(const util::CliArgs& args) {
  WorkloadParams p;
  const auto size = [&](const char* key) {
    return static_cast<std::size_t>(args.get_int(key, 0));
  };
  p.name = args.get_string("workload", "");
  p.op = args.get_string("op", "");
  p.workdir = args.get_string("workdir", "");
  p.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  p.nodes = size("nodes");
  p.attach = size("attach");
  p.communities = size("communities");
  p.community_size = size("community-size");
  p.p_in = args.get_double("p-in", 0.0);
  p.p_out = args.get_double("p-out", 0.0);
  p.hub_attach = size("hub-attach");
  p.dim = size("dim");
  p.epsilon = args.get_double("epsilon", 0.0);
  p.delta = args.get_double("delta", 0.0);
  p.shard_rows = size("shard-rows");
  p.clusters = size("clusters");
  p.top = size("top");
  return p;
}

int run(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const WorkloadParams params = parse_params(args);
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  if (params.name.empty() || params.workdir.empty()) {
    std::fprintf(stderr, "usage error: --workload and --workdir are required\n");
    return 2;
  }
  std::filesystem::create_directories(params.workdir + "/self-test");

  const HostFingerprint host = host_fingerprint(params.workdir);
  std::printf("workload %s, seed %llu, %.0f s, trace %s\n",
              params.name.c_str(),
              static_cast<unsigned long long>(params.seed), seconds,
              trace ? "on" : "off");
  std::printf(
      "host: cpu \"%s\", nproc %zu, pool threads %zu, normal kernel %s, "
      "polynomial kernel %s, compiler %s, build %s, release fs %s\n",
      host.cpu_model.c_str(), host.nproc, host.pool_threads,
      host.normal_kernel.c_str(), host.polynomial_kernel.c_str(),
      host.compiler.c_str(), host.build_type.c_str(),
      host.release_fs.c_str());

  const std::vector<std::string> self_test_problems =
      self_test(params.workdir + "/self-test",
                {.epsilon = params.epsilon, .delta = params.delta});
  for (const std::string& problem : self_test_problems) {
    std::printf("self-test FAILED: %s\n", problem.c_str());
  }
  if (self_test_problems.empty()) std::printf("self-test: every check fires\n");
  std::filesystem::remove_all(params.workdir + "/self-test");

  const std::unique_ptr<Workload> workload = make_workload(params);
  std::vector<double> setup_times;
  double setup_total = 0.0;
  while (setup_times.size() < kMinSetups || setup_total < kSetupSeconds) {
    const double t0 = now_seconds();
    workload->set_up();
    setup_times.push_back(now_seconds() - t0);
    setup_total += setup_times.back();
  }
  std::printf("input: %s\n", workload->describe_input().c_str());
  const bool rss_reset = reset_peak_rss();
  if (!rss_reset) {
    std::printf("warning: cannot reset VmHWM; peak_rss_mb includes set-up\n");
  }

  std::vector<OpRecord> records;
  const double deadline = now_seconds() + seconds;
  while (records.empty() || now_seconds() < deadline) {
    records.push_back(run_op(*workload, trace && records.size() % 2 == 1));
  }

  std::size_t failed = 0;
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  std::vector<const OpRecord*> traced;
  double peak = 0.0;
  double cpu = 0.0;
  double wall = 0.0;
  for (const OpRecord& rec : records) {
    if (!rec.error.empty()) {
      ++failed;
      std::printf("op FAILED: %s\n", rec.error.c_str());
    }
    walls.push_back(rec.wall_s);
    (rec.traced ? traced_walls : untraced_walls).push_back(rec.wall_s);
    if (rec.traced) traced.push_back(&rec);
    peak = std::max(peak, rec.peak_rss_mb);
    cpu += rec.cpu_s;
    wall += rec.wall_s;
  }
  const bool correct = failed == 0 && self_test_problems.empty();

  std::printf("setup_s: %s\n", describe_timing(setup_times).c_str());
  std::printf("op_s (%s, untraced): %s\n", workload->op_name().c_str(),
              describe_timing(untraced_walls).c_str());
  std::map<std::string, std::vector<double>> call_times;
  for (const OpRecord& rec : records) {
    for (const auto& [name, t] : rec.calls) call_times[name].push_back(t);
    for (const auto& [name, t] : rec.counts) {
      if (name.ends_with("_s")) call_times[name].push_back(t);
    }
  }
  for (const auto& [name, times] : call_times) {
    std::printf("  %s: %s\n", name.c_str(), describe_timing(times).c_str());
  }
  std::printf("peak_rss_mb: %.1f MB (max over %zu ops)\n", peak,
              records.size());
  std::printf("ops: %zu attempted, %zu failed\n", records.size(), failed);

  std::map<std::string, double> values;
  if (!trace) {
    values = {{"setup_s", median(setup_times)},
              {"op_s", median(walls)},
              {"peak_rss_mb", peak}};
  } else {
    std::printf("op_s (%s, traced): %s\n", workload->op_name().c_str(),
                describe_timing(traced_walls).c_str());
    std::map<std::string, std::vector<double>> samples;
    for (const OpRecord* rec : traced) {
      for (const auto& [name, value] : workload->layer_metrics(*rec)) {
        samples[name].push_back(value);
      }
    }
    for (const auto& [name, v] : samples) values[name] = median(v);
    const double nproc = static_cast<double>(std::max<std::size_t>(host.nproc, 1));
    values["util.cpu_util"] = wall > 0.0 ? cpu / (wall * nproc) : 0.0;
    if (!untraced_walls.empty() && !traced_walls.empty()) {
      values["obs.trace_overhead"] =
          median(traced_walls) / median(untraced_walls) - 1.0;
    }
    print_layer_table(traced);
  }
  print_result(correct, records.size(), failed, values);
  return 0;
}

}  // namespace
}  // namespace sgp::perfbench

int main(int argc, char** argv) {
  // Die with the parent: a harness that kills run.py must not leave a
  // driver running behind it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  try {
    return sgp::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
