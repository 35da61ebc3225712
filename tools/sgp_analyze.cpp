// sgp_analyze — analyst-side consumer of a DP release.
//
//   sgp_analyze --release release.bin --task cluster --clusters 8
//   sgp_analyze --release release.bin --task cluster            (auto k via
//                                       the eigengap of the release)
//   sgp_analyze --release release.bin --task rank [--top 100]
//   sgp_analyze --release release.bin --task stats               (edge count
//                                       + degree histogram estimates)
//   sgp_analyze --release release.bin --task info
//   sgp_analyze --compare-mechanisms BENCH_E14.json
//                                      [--mechanism M] [--task T]
//
// --compare-mechanisms renders the E14 mechanism-comparison grid from a
// BENCH_E14.json report (bench/bench_e14_mechanisms.cpp): one row per
// generator × task × ε cell, one score column per mechanism. --mechanism
// (validated against the registered mechanism family) and --task narrow
// the table. No release file is needed in this mode.
//
// Unknown --task / --mechanism values are usage errors (exit 2) and the
// message lists the valid values, mirroring sgp_lint --rules. So is any
// flag the chosen mode and task do not read: --clusters and --seed belong
// to --task cluster, --top to --task rank, --mechanism to
// --compare-mechanisms.
//
// Output: one line per node on stdout (cluster id, or rank order), metadata
// on stderr. The original graph is never needed.
//
// Shares the observability flags of all sgp_* tools:
// [--metrics-out metrics.json [--metrics-format prometheus]] [--trace]
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/select_k.hpp"
#include "core/mechanism.hpp"
#include "core/publisher.hpp"
#include "core/reconstruction.hpp"
#include "core/serialization.hpp"
#include "linalg/svd.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "ranking/metrics.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

const std::vector<std::string> kReleaseTasks = {"info", "stats", "cluster",
                                                "rank"};

/// Usage-contract guard: an unrecognized value exits 2 with the valid set
/// spelled out (the same shape sgp_lint uses for unknown rule ids).
void require_one_of(const std::string& flag, const std::string& value,
                    const std::vector<std::string>& valid) {
  std::string listed;
  for (const std::string& v : valid) {
    if (v == value) return;
    if (!listed.empty()) listed += " ";
    listed += v;
  }
  throw sgp::util::PreconditionError("unknown " + flag + " '" + value +
                                     "' (valid: " + listed + ")");
}

std::vector<std::string> split_csv(const std::string& spec) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : spec) {
    if (c == ',') {
      out.push_back(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

/// Renders the E14 grid from a BENCH_E14.json report. The axis lists and
/// per-cell "score.<gen>.<mech>.e<eps>.<task>" keys are the contract
/// sgp_bench_check enforces, so a validated report always renders fully.
int compare_mechanisms(const std::string& path,
                       const std::string& mechanism_filter,
                       const std::string& task_filter) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw sgp::util::IoError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const sgp::util::JsonValue doc = sgp::util::parse_json(buf.str());
  const sgp::util::JsonValue* id = doc.find("id");
  if (id == nullptr || !id->is_string() || id->as_string() != "E14") {
    throw sgp::util::ParseError(
        path + ": not an E14 mechanism-comparison report (run "
               "bench_e14_mechanisms to produce BENCH_E14.json)");
  }
  const sgp::util::JsonValue* meta = doc.find("meta");
  if (meta == nullptr) {
    throw sgp::util::ParseError(path + ": report has no meta object");
  }
  const auto axis = [&](const char* key) {
    const sgp::util::JsonValue* v = meta->find(key);
    if (v == nullptr || !v->is_string() || v->as_string().empty()) {
      throw sgp::util::ParseError(path + ": E14 meta." + std::string(key) +
                                  " is missing");
    }
    return split_csv(v->as_string());
  };
  const auto mechanisms = axis("mechanisms");
  const auto generators = axis("generators");
  const auto epsilons = axis("epsilons");
  const auto tasks = axis("tasks");
  if (!task_filter.empty()) require_one_of("task", task_filter, tasks);

  std::vector<std::string> shown_mechanisms;
  for (const std::string& mech : mechanisms) {
    if (mechanism_filter.empty() || mech == mechanism_filter) {
      shown_mechanisms.push_back(mech);
    }
  }
  if (shown_mechanisms.empty()) {
    throw sgp::util::ParseError(path + ": report carries no mechanism '" +
                                mechanism_filter + "'");
  }

  std::vector<std::string> header = {"generator", "task", "epsilon"};
  header.insert(header.end(), shown_mechanisms.begin(),
                shown_mechanisms.end());
  sgp::util::TextTable table(header);
  std::size_t rows = 0;
  for (const std::string& gen : generators) {
    for (const std::string& task : tasks) {
      if (!task_filter.empty() && task != task_filter) continue;
      for (const std::string& eps : epsilons) {
        table.new_row().add(gen).add(task).add(eps);
        for (const std::string& mech : shown_mechanisms) {
          const std::string key =
              "score." + gen + "." + mech + ".e" + eps + "." + task;
          const sgp::util::JsonValue* score = meta->find(key);
          if (score == nullptr || !score->is_number()) {
            throw sgp::util::ParseError(path + ": meta missing '" + key +
                                        "'");
          }
          table.add(score->as_number(), 3);
        }
        ++rows;
      }
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::fprintf(stderr, "compared %zu mechanism(s) over %zu grid row(s)\n",
               shown_mechanisms.size(), rows);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const std::string compare_path = args.get_string("compare-mechanisms", "");
  const std::string release_path =
      compare_path.empty() ? args.get_string("release", "") : std::string();
  if (release_path.empty() && compare_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --release release.bin --task info|stats|cluster|"
                 "rank [--clusters K] [--top N] [--seed S]\n"
                 "       %s --compare-mechanisms BENCH_E14.json "
                 "[--mechanism M] [--task T]\n"
                 "common: [--metrics-out metrics.json] [--trace]\n",
                 args.program().c_str(), args.program().c_str());
    return sgp::tools::kExitUsage;
  }

  return sgp::tools::run_tool([&]() -> int {
    const sgp::tools::ObsScope obs_scope(args, "sgp_analyze");
    // Each mode reads only its own flags; anything else given exits 2.
    if (!compare_path.empty()) {
      const std::string mechanism = args.get_string("mechanism", "");
      const std::string task_filter = args.get_string("task", "");
      args.reject_unread();
      // The mechanism family is the registry's to validate: analysts get
      // the same names the grid and bench use.
      if (!mechanism.empty()) {
        require_one_of("mechanism", mechanism,
                       sgp::core::known_mechanism_names());
      }
      sgp::obs::ScopedTimer task_timer(
          std::string(sgp::obs::names::kToolCompareMechanisms));
      return compare_mechanisms(compare_path, mechanism, task_filter);
    }

    const std::string task = args.get_string("task", "info");
    require_one_of("task", task, kReleaseTasks);
    const std::uint64_t seed =
        task == "cluster" ? args.get_uint64("seed", 7) : 0;
    const auto clusters = static_cast<std::size_t>(
        task == "cluster" ? args.get_uint64("clusters", 0) : 0);
    const auto top = static_cast<std::size_t>(
        task == "rank" ? args.get_uint64("top", 100) : 0);
    args.reject_unread();
    sgp::obs::ScopedTimer task_timer("tool." + task);
    const auto release = sgp::core::load_published_file(release_path);
    std::fprintf(stderr, "release: n=%zu m=%zu %s sigma=%.3f projection=%s\n",
                 release.num_nodes, release.projection_dim,
                 release.params.to_string().c_str(),
                 release.calibration.sigma,
                 sgp::core::to_string(release.projection).c_str());

    if (task == "info") {
      return 0;
    }
    if (task == "stats") {
      std::printf("estimated edges: %.1f\n",
                  sgp::core::estimate_edge_count(release));
      const auto hist =
          sgp::core::estimate_degree_histogram(release, 10.0, 30);
      std::printf("estimated degree histogram (bins of 10):\n");
      for (std::size_t b = 0; b < hist.size(); ++b) {
        if (hist[b] > 0) {
          std::printf("  [%3zu, %3zu): %zu\n", b * 10, (b + 1) * 10, hist[b]);
        }
      }
      return 0;
    }
    if (task == "cluster") {
      std::size_t k = clusters;
      if (k == 0) {
        // Pick k from the eigengap of the release's singular values.
        const auto probe = std::min<std::size_t>(release.projection_dim, 24);
        const auto svd = sgp::linalg::svd_gram(release.data, probe);
        k = sgp::cluster::eigengap_k(svd.singular_values);
        std::fprintf(stderr, "eigengap heuristic chose k=%zu\n", k);
      }
      const auto result = sgp::core::cluster_published(release, k, seed);
      for (std::size_t u = 0; u < result.assignments.size(); ++u) {
        std::printf("%zu %u\n", u, result.assignments[u]);
      }
      std::fprintf(stderr, "clustered %zu nodes into %zu groups\n",
                   result.assignments.size(), k);
      return 0;
    }
    // rank — the only task left after require_one_of.
    const auto scores = sgp::core::degree_scores(release);
    const auto order = sgp::ranking::ranking_from_scores(scores);
    const std::size_t count = std::min(top, order.size());
    for (std::size_t i = 0; i < count; ++i) {
      std::printf("%zu %zu %.2f\n", i + 1, order[i], scores[order[i]]);
    }
    std::fprintf(stderr, "ranked top-%zu of %zu nodes by estimated degree\n",
                 count, order.size());
    return 0;
  });
}
