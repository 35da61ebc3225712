// sgp_lint — repo-invariant static analysis (see docs/static_analysis.md).
//
//   sgp_lint --root . [--format text|json|sarif] [--out report.json]
//            [--rules R1,R3] [--baseline .lint-baseline.json]
//            [--no-baseline] [--write-baseline]
//            [--threads N] [--cache] [--cache-path .lint-cache.json]
//
// --threads N (0 = one per core) is at most 1024 (util::kMaxThreads); a
// larger count exits 2 before any thread starts.
//
// Exit codes extend the shared tool contract with the conventional linter
// "findings" code:
//
//   0  clean (or all findings baselined)
//   1  findings reported
//   2  usage error
//   3  IO / malformed baseline
//
// With no --baseline flag, <root>/.lint-baseline.json is applied when it
// exists. --write-baseline rewrites that file so the current findings
// become the grandfathered set (and exits 0); it takes no --format, --out
// or --no-baseline, and --cache-path needs --cache. A flag the tool does
// not read is a usage error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/sarif.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace {

std::vector<std::string> split_rules(const std::string& spec) {
  std::vector<std::string> out;
  std::istringstream in(spec);
  std::string id;
  while (std::getline(in, id, ',')) {
    if (!id.empty()) out.push_back(id);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  return sgp::tools::run_tool([&]() -> int {
    sgp::analysis::LintOptions options;
    options.root = args.get_string("root", ".");
    options.rules = split_rules(args.get_string("rules", ""));
    for (const std::string& id : options.rules) {
      bool known = false;
      for (std::string_view all : sgp::analysis::kAllRuleIds) {
        known = known || id == all;
      }
      if (!known) {
        std::string valid;
        for (std::string_view all : sgp::analysis::kAllRuleIds) {
          if (!valid.empty()) valid += " ";
          valid += all;
        }
        throw sgp::util::PreconditionError("unknown rule id: " + id +
                                           " (valid: " + valid + ")");
      }
    }
    // --write-baseline writes no report, so the report flags are left
    // unread there and refused like a typo.
    const bool write_baseline = args.get_bool("write-baseline", false);
    const std::string format =
        write_baseline ? "text" : args.get_string("format", "text");
    if (format != "text" && format != "json" && format != "sarif") {
      throw sgp::util::PreconditionError(
          "--format must be 'text', 'json', or 'sarif', got '" + format +
          "'");
    }
    options.threads = static_cast<std::size_t>(
        args.get_uint64("threads", 0, sgp::util::kMaxThreads));
    options.use_cache = args.get_bool("cache", false);
    if (options.use_cache) {
      options.cache_path = args.get_string(
          "cache-path",
          (std::filesystem::path(options.root) / ".lint-cache.json")
              .string());
    }
    std::string baseline_path = args.get_string("baseline", "");
    const bool no_baseline =
        !write_baseline && args.get_bool("no-baseline", false);
    const std::string out_path =
        write_baseline ? std::string() : args.get_string("out", "");
    args.reject_unread();

    sgp::analysis::LintResult result = sgp::analysis::run_lint(options);
    // Cache accounting goes to stderr only, so reports stay byte-identical
    // warm vs. cold (the property the cache tests pin).
    std::fprintf(stderr,
                 "sgp_lint: %zu file(s) scanned, %zu re-linted, %zu from "
                 "cache\n",
                 result.files_scanned, result.files_relinted,
                 result.cache_hits);

    const std::string default_baseline =
        (std::filesystem::path(options.root) / ".lint-baseline.json")
            .string();
    const bool explicit_baseline = !baseline_path.empty();
    if (baseline_path.empty()) baseline_path = default_baseline;

    if (write_baseline) {
      sgp::analysis::Baseline::from_findings(result.findings)
          .save(baseline_path);
      std::fprintf(stderr, "baseline with %zu finding(s) written to %s\n",
                   result.findings.size(), baseline_path.c_str());
      return sgp::tools::kExitOk;
    }

    if (!no_baseline &&
        (explicit_baseline || std::filesystem::exists(baseline_path))) {
      const auto baseline = sgp::analysis::Baseline::load(baseline_path);
      result.suppressed = baseline.apply(result.findings);
    }

    auto render = [&](std::ostream& os) {
      if (format == "json") {
        sgp::analysis::write_lint_report_json(result, options, os);
      } else if (format == "sarif") {
        sgp::analysis::write_lint_report_sarif(result, options, os);
      } else {
        sgp::analysis::write_lint_report_text(result, os);
      }
    };
    if (out_path.empty()) {
      render(std::cout);
    } else {
      std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
      if (!os.good()) {
        throw sgp::util::IoError("cannot open " + out_path);
      }
      render(os);
      os.flush();
      if (!os.good()) {
        throw sgp::util::IoError("failed writing " + out_path);
      }
    }
    return result.findings.empty() ? sgp::tools::kExitOk : 1;
  });
}
