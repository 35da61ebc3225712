#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "cluster/louvain.hpp"
#include "cluster/metrics.hpp"
#include "core/serialization.hpp"
#include "dp/defaults.hpp"
#include "graph/metrics.hpp"
#include "random/rng.hpp"
#include "ranking/metrics.hpp"
#include "util/check.hpp"

namespace sgp::core::scenario {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string format_epsilon(double epsilon) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", epsilon);
  return buf;
}

/// Truth labels of a scenario graph: the planted communities when the
/// generator provides them, otherwise the Louvain partition of the original
/// graph (the best non-private reference available).
std::vector<std::uint32_t> truth_labels(const graph::PlantedGraph& original,
                                        std::uint64_t seed) {
  if (!original.labels.empty()) return original.labels;
  cluster::LouvainOptions lopt;
  lopt.seed = seed;
  return cluster::louvain_cluster(original.graph, lopt).assignments;
}

std::size_t count_labels(const std::vector<std::uint32_t>& labels) {
  std::size_t k = 0;
  for (std::uint32_t c : labels) k = std::max<std::size_t>(k, c + 1);
  return k;
}

/// The partition an analyst recovers from a release: spectral clustering of
/// the published matrix, or Louvain on the synthetic graph.
std::vector<std::uint32_t> predicted_partition(
    const MechanismRelease& release, const graph::PlantedGraph& original,
    std::uint64_t seed) {
  if (release.matrix.has_value()) {
    const std::size_t k = std::max<std::size_t>(
        2, std::min(count_labels(truth_labels(original, seed)),
                    release.matrix->projection_dim));
    return cluster_published(*release.matrix, k, seed).assignments;
  }
  cluster::LouvainOptions lopt;
  lopt.seed = seed;
  return cluster::louvain_cluster(*release.synthetic, lopt).assignments;
}

/// Per-node degree estimates of a release (exact degrees for synthetic
/// graphs, debiased row-norm estimates for matrix releases).
std::vector<double> degree_estimates(const MechanismRelease& release) {
  if (release.matrix.has_value()) return degree_scores(*release.matrix);
  std::vector<double> degrees(release.synthetic->num_nodes(), 0.0);
  for (std::size_t u = 0; u < degrees.size(); ++u) {
    degrees[u] = static_cast<double>(release.synthetic->degree(u));
  }
  return degrees;
}

std::vector<double> exact_degrees(const graph::Graph& g) {
  std::vector<double> degrees(g.num_nodes(), 0.0);
  for (std::size_t u = 0; u < degrees.size(); ++u) {
    degrees[u] = static_cast<double>(g.degree(u));
  }
  return degrees;
}

/// 1 − total-variation distance between the binned degree distributions of
/// the original graph and the estimates. Bins are sized from the original's
/// max degree so both sides share one binning.
double degree_distribution_score(const std::vector<double>& truth,
                                 const std::vector<double>& estimate) {
  double max_degree = 1.0;
  for (double d : truth) max_degree = std::max(max_degree, d);
  const double bin_width = std::max(1.0, max_degree / 16.0);
  const auto bins = static_cast<std::size_t>(max_degree / bin_width) + 2;
  std::vector<double> p(bins, 0.0), q(bins, 0.0);
  const auto bin_of = [&](double d) {
    const double clamped = std::clamp(d, 0.0, max_degree + bin_width);
    return std::min(bins - 1, static_cast<std::size_t>(clamped / bin_width));
  };
  for (double d : truth) p[bin_of(d)] += 1.0;
  for (double d : estimate) q[bin_of(d)] += 1.0;
  double tv = 0.0;
  for (std::size_t b = 0; b < bins; ++b) {
    tv += std::abs(p[b] / static_cast<double>(truth.size()) -
                   q[b] / static_cast<double>(estimate.size()));
  }
  return 1.0 - 0.5 * tv;
}

/// 1 − conductance of the largest community of `labels` on the original
/// graph. A partition that merges everything scores 0 (no structure found).
double conductance_score(const graph::Graph& g,
                         const std::vector<std::uint32_t>& labels) {
  const std::size_t k = count_labels(labels);
  std::vector<std::size_t> sizes(k, 0);
  for (std::uint32_t c : labels) ++sizes[c];
  const std::size_t largest = static_cast<std::size_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  if (sizes[largest] == 0 || sizes[largest] >= g.num_nodes()) return 0.0;
  std::vector<bool> in_set(g.num_nodes(), false);
  for (std::size_t u = 0; u < labels.size(); ++u) {
    in_set[u] = labels[u] == static_cast<std::uint32_t>(largest);
  }
  const double phi = graph::conductance(g, in_set);
  return 1.0 - std::clamp(phi, 0.0, 1.0);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t cell_seed(std::uint64_t base_seed, std::string_view label) {
  return splitmix64(base_seed ^ splitmix64(fnv1a64(label)));
}

std::string join_labels(std::initializer_list<std::string_view> parts) {
  std::string label;
  for (std::string_view part : parts) {
    if (!label.empty()) label += "/";
    label += part;
  }
  return label;
}

std::string to_string(GeneratorKind kind) {
  switch (kind) {
    case GeneratorKind::kSbm:
      return "sbm";
    case GeneratorKind::kBa:
      return "ba";
  }
  util::require(false, "to_string: invalid GeneratorKind");
  return {};
}

const std::vector<std::string>& known_generator_names() {
  static const std::vector<std::string> names{
      to_string(GeneratorKind::kSbm), to_string(GeneratorKind::kBa)};
  return names;
}

GeneratorKind parse_generator(const std::string& name) {
  if (name == "sbm") return GeneratorKind::kSbm;
  if (name == "ba") return GeneratorKind::kBa;
  util::require(false, "unknown generator '" + name + "' (valid: sbm|ba)");
  return GeneratorKind::kSbm;
}

std::string to_string(TaskKind task) {
  switch (task) {
    case TaskKind::kCluster:
      return "cluster";
    case TaskKind::kRank:
      return "rank";
    case TaskKind::kDegree:
      return "degree";
    case TaskKind::kConductance:
      return "conductance";
  }
  util::require(false, "to_string: invalid TaskKind");
  return {};
}

const std::vector<std::string>& known_task_names() {
  static const std::vector<std::string> names{
      to_string(TaskKind::kCluster), to_string(TaskKind::kRank),
      to_string(TaskKind::kDegree), to_string(TaskKind::kConductance)};
  return names;
}

TaskKind parse_task(const std::string& name) {
  if (name == "cluster") return TaskKind::kCluster;
  if (name == "rank") return TaskKind::kRank;
  if (name == "degree") return TaskKind::kDegree;
  if (name == "conductance") return TaskKind::kConductance;
  util::require(false, "unknown task '" + name +
                           "' (valid: cluster|rank|degree|conductance)");
  return TaskKind::kCluster;
}

std::vector<ScenarioCell> standard_grid(std::uint64_t base_seed) {
  // The four axes, declared through the same primitives the PARAMETERIZE
  // macros build on.
  AxisBuilder<GeneratorKind> generators("generator");
  for (const auto& name : known_generator_names()) {
    generators.add(name, parse_generator(name));
  }
  AxisBuilder<MechanismKind> mechanisms("mechanism");
  for (const auto& name : known_mechanism_names()) {
    mechanisms.add(name, parse_mechanism(name));
  }
  AxisBuilder<double> epsilons("epsilon");
  for (double epsilon : dp::kScenarioEpsilons) {
    epsilons.add(format_epsilon(epsilon), epsilon);
  }
  AxisBuilder<TaskKind> tasks("task");
  for (const auto& name : known_task_names()) {
    tasks.add(name, parse_task(name));
  }
  const Axis<GeneratorKind> generator_axis = generators.build();
  const Axis<MechanismKind> mechanism_axis = mechanisms.build();
  const Axis<double> epsilon_axis = epsilons.build();
  const Axis<TaskKind> task_axis = tasks.build();

  std::vector<ScenarioCell> grid;
  grid.reserve(generator_axis.size() * mechanism_axis.size() *
               epsilon_axis.size() * task_axis.size());
  for (const auto& g : generator_axis.options) {
    for (const auto& m : mechanism_axis.options) {
      for (const auto& epsilon_option : epsilon_axis.options) {
        for (const auto& t : task_axis.options) {
          ScenarioCell cell;
          cell.generator = g.value;
          cell.mechanism = m.value;
          cell.budget.epsilon = epsilon_option.value;
          cell.budget.delta = dp::kScenarioDelta;
          cell.task = t.value;
          cell.label = join_labels({"generator=" + g.label,
                                    "mechanism=" + m.label,
                                    "epsilon=" + epsilon_option.label,
                                    "task=" + t.label});
          cell.seed = cell_seed(base_seed, cell.label);
          cell.index = grid.size();
          grid.push_back(std::move(cell));
        }
      }
    }
  }
  return grid;
}

graph::PlantedGraph make_scenario_graph(GeneratorKind kind,
                                        std::uint64_t seed,
                                        std::size_t num_nodes) {
  util::require(num_nodes >= 16, "scenario graph: too few nodes");
  random::Rng rng(seed);
  switch (kind) {
    case GeneratorKind::kSbm: {
      const std::size_t quarter = num_nodes / 4;
      const std::vector<std::size_t> sizes{quarter, quarter, quarter,
                                           num_nodes - 3 * quarter};
      // Dense enough that the planted blocks sit above the partition-phase
      // noise at the grid's upper ε points — the cluster task then separates
      // mechanisms instead of scoring ~0 everywhere.
      return graph::stochastic_block_model(sizes, 0.25, 0.025, rng);
    }
    case GeneratorKind::kBa: {
      graph::PlantedGraph planted;
      planted.graph = graph::barabasi_albert(num_nodes, 4, rng);
      return planted;
    }
  }
  util::require(false, "make_scenario_graph: invalid GeneratorKind");
  return {};
}

MechanismOptions cell_options(const ScenarioCell& cell) {
  MechanismOptions options;
  options.params = cell.budget;
  options.seed = cell.seed;
  options.projection_dim = kScenarioProjectionDim;
  return options;
}

double run_task(const MechanismRelease& release, TaskKind task,
                const graph::PlantedGraph& original, std::uint64_t seed) {
  util::require(release.validate(), "run_task: release failed validation");
  switch (task) {
    case TaskKind::kCluster:
      return cluster::normalized_mutual_information(
          predicted_partition(release, original, seed),
          truth_labels(original, seed));
    case TaskKind::kRank:
      return ranking::top_k_overlap(
          exact_degrees(original.graph), degree_estimates(release),
          std::max<std::size_t>(1, original.graph.num_nodes() / 10));
    case TaskKind::kDegree:
      return degree_distribution_score(exact_degrees(original.graph),
                                       degree_estimates(release));
    case TaskKind::kConductance:
      return conductance_score(original.graph,
                               predicted_partition(release, original, seed));
  }
  util::require(false, "run_task: invalid TaskKind");
  return 0.0;
}

double reference_score(TaskKind task, const graph::PlantedGraph& original,
                       std::uint64_t seed) {
  switch (task) {
    case TaskKind::kCluster: {
      cluster::LouvainOptions lopt;
      lopt.seed = seed;
      return cluster::normalized_mutual_information(
          cluster::louvain_cluster(original.graph, lopt).assignments,
          truth_labels(original, seed));
    }
    case TaskKind::kRank:
      return 1.0;  // exact degrees rank themselves perfectly
    case TaskKind::kDegree:
      return 1.0;  // identical distributions, zero TV distance
    case TaskKind::kConductance: {
      cluster::LouvainOptions lopt;
      lopt.seed = seed;
      return conductance_score(
          original.graph,
          cluster::louvain_cluster(original.graph, lopt).assignments);
    }
  }
  util::require(false, "reference_score: invalid TaskKind");
  return 0.0;
}

std::string release_fingerprint(const MechanismRelease& release) {
  std::ostringstream out;
  if (release.matrix.has_value()) {
    save_published(*release.matrix, out);
    return out.str();
  }
  out << "synthetic n=" << release.synthetic->num_nodes()
      << " k=" << release.num_communities << "\n";
  for (const auto& e : release.synthetic->edges()) {
    out << e.u << "," << e.v << ";";
  }
  return out.str();
}

}  // namespace sgp::core::scenario
