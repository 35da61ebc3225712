// Shared top-level error handling for the sgp_* CLI tools.
//
// Every tool wraps its body in run_tool(), which maps the sgp error
// taxonomy (util/errors.hpp) onto documented, scriptable exit codes —
// instead of each tool improvising (or worse, letting an exception escape
// main into std::terminate):
//
//   0  success
//   2  usage error (bad flags, missing required arguments)
//   3  data error (unreadable/corrupt input, IO failure, corrupt ledger)
//   4  privacy budget exhausted (nothing was released)
//   5  internal error (solver non-convergence, allocation failure, bugs)
//
// The codes are part of the CLI contract; see docs/robustness.md.
// Observability flags shared by every tool (see docs/observability.md):
//
//   --metrics-out <path>   enable metrics and tracing and write the
//                          "sgp-obs-report v2" JSON report (obs/report.hpp:
//                          counters, gauges, histograms, phases, spans,
//                          events) on exit — also on error exits, so failed
//                          runs are diagnosable
//   --metrics-format json|prometheus   the report's format, JSON by default
//                          (read only with --metrics-out)
//   --trace                enable trace spans; a human-readable span tree
//                          is printed to stderr on exit
//
// A tool builds its ObsScope inside run_tool, so a malformed value of
// these flags exits 2 like any other usage error.
#pragma once

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>

#include "obs/event_log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"

namespace sgp::tools {

inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitData = 3;
inline constexpr int kExitBudget = 4;
inline constexpr int kExitInternal = 5;

/// Parses the shared observability flags, enables the subsystems they ask
/// for, and emits the outputs from its destructor — so the report is
/// written whether the tool body succeeds, fails, or throws.
class ObsScope {
 public:
  ObsScope(const util::CliArgs& args, std::string tool_name)
      : tool_name_(std::move(tool_name)),
        metrics_path_(args.get_string("metrics-out", "")),
        // Left unread without --metrics-out, so reject_unread() refuses it.
        prometheus_(!metrics_path_.empty() &&
                    is_prometheus(args.get_string("metrics-format", "json"))),
        trace_(args.get_bool("trace", false)) {
    if (metrics_on()) {
      obs::set_metrics_enabled(true);
      // The report carries the span tree, so --metrics-out traces too.
      obs::set_trace_enabled(true);
      // Pre-register the pipeline's headline metrics (Prometheus-style
      // up-front declaration) so every report carries them, zero-valued
      // when the corresponding stage did not run. Names come from the
      // canonical registry (obs/metric_names.hpp) — sgp-lint rule R3
      // rejects strings that are not in it.
      for (std::string_view name :
           {obs::names::kPublishReleases, obs::names::kPublishEmbeds,
            obs::names::kPublishShards, obs::names::kPublishShardsResumed,
            obs::names::kPublishLeasesReclaimed, obs::names::kRetryAttempts,
            obs::names::kLedgerAppends, obs::names::kLedgerAppendAttempts,
            obs::names::kLedgerRecoveries, obs::names::kLedgerCrcFailures,
            obs::names::kFaultTrips, obs::names::kObsEvents,
            obs::names::kProcSamples}) {
        obs::counter(name);
      }
      for (std::string_view base :
           {obs::names::kPublishProject, obs::names::kPublishPerturb,
            obs::names::kPublishEmbed, obs::names::kPublishShard,
            obs::names::kPublishDistributed}) {
        obs::histogram(std::string(base) + ".seconds");
      }
      obs::histogram(obs::names::kLedgerAppendSeconds);
      for (std::string_view name :
           {obs::names::kPublishWorkers, obs::names::kProcRssMb,
            obs::names::kProcPeakRssMb, obs::names::kProcUtimeSeconds,
            obs::names::kProcStimeSeconds, obs::names::kProcOpenFds}) {
        obs::gauge(name);
      }
      sampler_.start();
    }
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  /// Whether the shared observability flags enabled metrics collection.
  [[nodiscard]] bool metrics_on() const {
    return !metrics_path_.empty() || trace_;
  }

  /// Switches the destructor from the single-process report to the merged
  /// one: live coordinator state plus every worker sidecar under
  /// `sidecar_prefix` (obs/report.hpp). JSON format only;
  /// --metrics-format prometheus keeps the local registry view.
  void set_distributed_merge(std::string sidecar_prefix,
                             std::string trace_id) {
    merge_prefix_ = std::move(sidecar_prefix);
    merge_trace_id_ = std::move(trace_id);
  }

  ~ObsScope() {
    sampler_.stop();
    // The final flush of a sidecar a distributed publish opened: the merge
    // below reads live state and deletes the consumed files.
    obs::close_sidecar();
    if (trace_) {
      std::fprintf(stderr, "--- trace (%s) ---\n", tool_name_.c_str());
      obs::write_trace_text(std::cerr);
    }
    if (metrics_path_.empty()) return;
    try {
      if (prometheus_) {
        std::ofstream out(metrics_path_, std::ios::binary | std::ios::trunc);
        if (!out.good()) {
          throw util::IoError("cannot open " + metrics_path_);
        }
        obs::write_metrics_prometheus(out);
        out.flush();
        if (!out.good()) {
          throw util::IoError("failed writing " + metrics_path_);
        }
      } else if (!merge_prefix_.empty()) {
        obs::write_merged_report_file(metrics_path_, tool_name_,
                                      merge_prefix_, merge_trace_id_);
      } else {
        obs::Report(tool_name_).write_file(metrics_path_);
      }
      std::fprintf(stderr, "metrics written to %s\n", metrics_path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: failed writing metrics: %s\n", e.what());
    }
  }

 private:
  static bool is_prometheus(const std::string& format) {
    if (format != "json" && format != "prometheus") {
      throw util::PreconditionError(
          "--metrics-format must be json or prometheus, got '" + format +
          "'");
    }
    return format == "prometheus";
  }

  std::string tool_name_;
  std::string metrics_path_;
  bool prometheus_;
  bool trace_;
  std::string merge_prefix_;
  std::string merge_trace_id_;
  obs::ResourceSampler sampler_;
};

template <typename Fn>
int run_tool(Fn&& body) {
  try {
    return body();
  } catch (const util::SgpError& e) {
    // One switch over the taxonomy keeps new kinds from silently falling
    // into the generic handler below with the wrong exit code.
    switch (e.kind()) {
      case util::ErrorKind::kBudgetExhausted:
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitBudget;
      case util::ErrorKind::kParse:
      case util::ErrorKind::kIo:
      case util::ErrorKind::kLedgerCorrupt:
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitData;
      case util::ErrorKind::kConvergence:
      case util::ErrorKind::kResource:
      case util::ErrorKind::kInternal:
        std::fprintf(stderr, "internal error: %s\n", e.what());
        return kExitInternal;
    }
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return kExitInternal;
  } catch (const std::invalid_argument& e) {
    // util::require / CliArgs: the caller passed something malformed.
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "internal error: out of memory\n");
    return kExitInternal;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return kExitInternal;
  }
}

}  // namespace sgp::tools
