#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "checks.hpp"
#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "core/publisher.hpp"
#include "core/serialization.hpp"
#include "core/sharded_publish.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "obs/metric_names.hpp"
#include "probe.hpp"
#include "random/rng.hpp"
#include "ranking/metrics.hpp"

namespace sgp::perfbench {
namespace {

constexpr double kMB = 1e6;

double sum_spans(const std::vector<obs::SpanRecord>& spans,
                 std::string_view name) {
  double total = 0.0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == name) total += s.duration_seconds;
  }
  return total;
}

double call(const OpRecord& rec, const std::string& name) {
  const auto it = rec.calls.find(name);
  return it == rec.calls.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void require_ok(const std::string& what, const std::string& verdict) {
  if (!verdict.empty()) throw std::runtime_error(what + ": " + verdict);
}

core::RandomProjectionPublisher::Options publish_options(
    const WorkloadParams& p) {
  // Everything not set here stays at the library default: gaussian
  // projection, the default release seed and kernel auto.
  core::RandomProjectionPublisher::Options options;
  options.projection_dim = p.dim;
  options.params = {p.epsilon, p.delta};
  return options;
}

ReleaseExpectation expectation(const WorkloadParams& p, std::size_t nodes) {
  return {nodes, p.dim, p.epsilon, p.delta};
}

/// The publish-side workloads: an edge-list file in, a release file out.
class PublishWorkload : public Workload {
 public:
  explicit PublishWorkload(WorkloadParams p)
      : p_(std::move(p)),
        edges_(p_.workdir + "/edges.txt"),
        release_(p_.workdir + "/release.bin"),
        reference_(p_.workdir + "/reference.bin") {}

  [[nodiscard]] std::string op_name() const override { return "release"; }

  [[nodiscard]] std::string describe_input() const override {
    return "BA graph n=" + std::to_string(p_.nodes) +
           " attach=" + std::to_string(p_.attach) + ", " +
           std::to_string(edge_bytes_) + " B edge list, m=" +
           std::to_string(p_.dim) +
           (p_.shard_rows > 0
                ? ", " + std::to_string(p_.shard_rows) + "-row shards"
                : std::string());
  }

 protected:
  /// Writes the workload's BA graph as an edge-list file.
  void generate_input() {
    random::Rng rng(p_.seed);
    const graph::Graph g = graph::barabasi_albert(p_.nodes, p_.attach, rng);
    graph::write_edge_list_file(g, edges_);
    nodes_ = g.num_nodes();
    edge_bytes_ = std::filesystem::file_size(edges_);
  }

  void warm_up() {
    OpRecord warm_up;
    op(warm_up);
    require_ok("warm-up op", check());
  }

  /// Edge-list bytes read per release, as a multiple of the file size.
  [[nodiscard]] double read_amplification(const OpRecord& rec) const {
    return ratio(static_cast<double>(rec.read_bytes),
                 static_cast<double>(edge_bytes_));
  }

  WorkloadParams p_;
  std::string edges_;
  std::string release_;
  std::string reference_;
  std::size_t nodes_ = 0;
  std::uint64_t edge_bytes_ = 0;
};

/// inmem_dense / inmem_wide: read_edge_list_file → adjacency_matrix →
/// publish_matrix → save_published_file.
class InMemoryRelease final : public PublishWorkload {
 public:
  using PublishWorkload::PublishWorkload;

  /// The warm-up op's release is the workload's first release: every later
  /// one must equal it byte for byte.
  void set_up() override {
    generate_input();
    have_reference_ = false;
    warm_up();
    std::filesystem::copy_file(
        release_, reference_,
        std::filesystem::copy_options::overwrite_existing);
    have_reference_ = true;
  }

  void op(OpRecord& rec) override {
    const core::RandomProjectionPublisher publisher(publish_options(p_));
    graph::Graph g;
    {
      CallTimer t(rec, "graph.read_edge_list_file");
      g = graph::read_edge_list_file(edges_);
    }
    linalg::CsrMatrix a;
    {
      CallTimer t(rec, "graph.adjacency_matrix");
      a = g.adjacency_matrix();
    }
    core::PublishedGraph release;
    {
      CallTimer t(rec, "core.publish_matrix");
      release = publisher.publish_matrix(a, 1.0);
    }
    {
      CallTimer t(rec, "core.save_published_file");
      core::save_published_file(release, release_);
    }
  }

  [[nodiscard]] std::string check() override {
    std::string verdict = check_release(release_, expectation(p_, nodes_));
    if (verdict.empty() && have_reference_) {
      verdict = check_identical(release_, reference_);
    }
    return verdict;
  }

  [[nodiscard]] std::map<std::string, double> layer_metrics(
      const OpRecord& rec) const override {
    std::map<std::string, double> m;
    const double read = call(rec, "graph.read_edge_list_file");
    const double csr = call(rec, "graph.adjacency_matrix");
    const double publish = call(rec, "core.publish_matrix");
    const double save = call(rec, "core.save_published_file");
    const double release_mb =
        static_cast<double>(nodes_ * p_.dim * sizeof(double)) / kMB;
    m["graph.read_edge_list_s"] = read;
    m["graph.adjacency_matrix_s"] = csr;
    m["graph.ingest_mb_per_s"] =
        ratio(static_cast<double>(edge_bytes_) / kMB, read + csr);
    m["core.publish_matrix_s"] = publish;
    m["linalg.project_s"] = sum_spans(rec.spans, obs::names::kPublishProject);
    m["random.perturb_s"] = sum_spans(rec.spans, obs::names::kPublishPerturb);
    m["core.cells_per_s"] =
        ratio(static_cast<double>(nodes_ * p_.dim), publish);
    m["core.save_published_s"] = save;
    m["core.write_mb_per_s"] = ratio(release_mb, save);
    m["graph.read_amplification"] = read_amplification(rec);
    return m;
  }

 private:
  bool have_reference_ = false;
};

/// sharded_dense: EdgeListShardReader → publish_sharded, checkpointing on.
class ShardedRelease final : public PublishWorkload {
 public:
  using PublishWorkload::PublishWorkload;

  /// The reference is the in-memory release of the same file and options.
  void set_up() override {
    generate_input();
    const graph::Graph g = graph::read_edge_list_file(edges_);
    core::save_published_file(
        core::RandomProjectionPublisher(publish_options(p_)).publish(g),
        reference_);
    require_ok("in-memory reference",
               check_release(reference_, expectation(p_, nodes_)));
    warm_up();
  }

  void op(OpRecord& rec) override {
    if (!check_no_checkpoint(release_).empty()) {
      throw std::runtime_error("checkpoint left from an earlier op");
    }
    core::ShardedPublishOptions options;
    options.publish = publish_options(p_);
    options.shard_rows = p_.shard_rows;
    std::optional<graph::EdgeListShardReader> reader;
    {
      CallTimer t(rec, "graph.shard_scan");
      reader.emplace(edges_);
    }
    {
      CallTimer t(rec, "core.publish_sharded");
      (void)core::publish_sharded(*reader, options, release_);
    }
  }

  [[nodiscard]] std::string check() override {
    std::string verdict = check_no_checkpoint(release_);
    if (verdict.empty()) verdict = check_identical(release_, reference_);
    return verdict;
  }

  [[nodiscard]] std::map<std::string, double> layer_metrics(
      const OpRecord& rec) const override {
    std::map<std::string, double> m;
    const double sharded = call(rec, "core.publish_sharded");
    const double reads = sum_spans(rec.spans, obs::names::kIoReadShard);
    m["graph.shard_scan_s"] = call(rec, "graph.shard_scan");
    m["graph.read_shard_s"] = reads;
    m["graph.ingest_mb_per_s"] =
        ratio(static_cast<double>(edge_bytes_) / kMB, reads);
    m["core.publish_sharded_s"] = sharded;
    m["core.cells_per_s"] =
        ratio(static_cast<double>(nodes_ * p_.dim), sharded);
    std::vector<double> shards;
    for (const obs::SpanRecord& s : rec.spans) {
      if (s.name == obs::names::kPublishShard) shards.push_back(s.duration_seconds);
    }
    if (!shards.empty()) {
      std::sort(shards.begin(), shards.end());
      const std::size_t mid = shards.size() / 2;
      const double median = shards.size() % 2 == 1
                                ? shards[mid]
                                : (shards[mid - 1] + shards[mid]) / 2.0;
      m["core.shard_max_over_median"] = ratio(shards.back(), median);
    }
    m["graph.read_amplification"] = read_amplification(rec);
    return m;
  }
};

/// analyst: one release of a planted social graph, read back by an analyst
/// who clusters and ranks. One op is a cluster query (load → embed →
/// k-means) followed by a rank query (load → degree scores → top k), each
/// loading the release as `sgp_analyze --task cluster|rank` would.
class AnalystQueries final : public Workload {
 public:
  explicit AnalystQueries(WorkloadParams p)
      : p_(std::move(p)), release_(p_.workdir + "/release.bin") {}

  [[nodiscard]] std::string op_name() const override {
    return "cluster query + rank query";
  }

  [[nodiscard]] std::string describe_input() const override {
    char utility[96];
    std::snprintf(utility, sizeof utility, ", NMI %.3f, top-%zu overlap %.3f",
                  nmi_, p_.top, overlap_);
    return "social_network_model " + std::to_string(p_.communities) + "x" +
           std::to_string(p_.community_size) + ", " +
           std::to_string(edges_) + " edges, m=" + std::to_string(p_.dim) +
           ", " + std::to_string(release_bytes_) + " B release" + utility;
  }

  void set_up() override {
    random::Rng rng(p_.seed);
    const std::vector<std::size_t> sizes(p_.communities, p_.community_size);
    const graph::PlantedGraph planted = graph::social_network_model(
        sizes, p_.p_in, p_.p_out, p_.hub_attach, rng);
    labels_ = planted.labels;
    edges_ = planted.graph.num_edges();
    std::vector<double> degrees(planted.graph.num_nodes());
    for (std::size_t u = 0; u < degrees.size(); ++u) {
      degrees[u] = static_cast<double>(planted.graph.degree(u));
    }
    true_top_ = top_of(degrees);
    core::save_published_file(
        core::RandomProjectionPublisher(publish_options(p_))
            .publish(planted.graph),
        release_);
    release_bytes_ = std::filesystem::file_size(release_);
    require_ok("release",
               check_release(release_, expectation(p_, degrees.size())));
    // The warm-up op fixes the answers every later op must repeat.
    OpRecord warm_up;
    op(warm_up);
    reference_assignments_ = assignments_;
    reference_top_ = top_;
    require_ok("warm-up op", check());
    nmi_ = cluster::normalized_mutual_information(assignments_, labels_);
    overlap_ = top_overlap(top_, true_top_);
  }

  void op(OpRecord& rec) override {
    const double cluster_start = now_seconds();
    linalg::DenseMatrix embedding;
    {
      const core::PublishedGraph release = load(rec);
      CallTimer t(rec, "linalg.spectral_embedding");
      embedding = core::spectral_embedding(release, p_.clusters);
    }
    {
      CallTimer t(rec, "cluster.cluster_embedding");
      cluster::SpectralOptions options;
      options.num_clusters = p_.clusters;
      cluster::KMeansResult result =
          cluster::cluster_embedding(embedding, options);
      assignments_ = std::move(result.assignments);
      rec.counts["cluster.kmeans_iterations"] = static_cast<double>(result.iterations);
    }
    const double rank_start = now_seconds();
    rec.counts["analyst.cluster_s"] = rank_start - cluster_start;
    {
      const core::PublishedGraph release = load(rec);
      CallTimer t(rec, "ranking.rank");
      top_ = top_of(core::degree_scores(release));
    }
    rec.counts["analyst.rank_s"] = now_seconds() - rank_start;
  }

  [[nodiscard]] std::string check() override {
    std::string verdict =
        check_assignments(assignments_, reference_assignments_, labels_);
    if (verdict.empty()) verdict = check_top(top_, reference_top_, true_top_);
    return verdict;
  }

  [[nodiscard]] std::map<std::string, double> layer_metrics(
      const OpRecord& rec) const override {
    std::map<std::string, double> m;
    const double load = call(rec, "core.load_published_file");
    m["core.load_published_s"] = load / 2.0;
    m["core.read_mb_per_s"] =
        ratio(2.0 * static_cast<double>(release_bytes_) / kMB, load);
    m["linalg.spectral_embedding_s"] = call(rec, "linalg.spectral_embedding");
    m["cluster.kmeans_s"] = call(rec, "cluster.cluster_embedding");
    m["ranking.rank_s"] = call(rec, "ranking.rank");
    m.insert(rec.counts.begin(), rec.counts.end());
    return m;
  }

 private:
  core::PublishedGraph load(OpRecord& rec) const {
    CallTimer t(rec, "core.load_published_file");
    return core::load_published_file(release_);
  }

  /// The first `top` nodes of the descending-score order.
  [[nodiscard]] std::vector<std::size_t> top_of(
      const std::vector<double>& scores) const {
    std::vector<std::size_t> order = ranking::ranking_from_scores(scores);
    order.resize(std::min(order.size(), p_.top));
    return order;
  }

  WorkloadParams p_;
  std::string release_;
  std::size_t edges_ = 0;
  std::uint64_t release_bytes_ = 0;
  double nmi_ = 0.0;
  double overlap_ = 0.0;
  std::vector<std::uint32_t> labels_;
  std::vector<std::size_t> true_top_;
  std::vector<std::uint32_t> assignments_;
  std::vector<std::uint32_t> reference_assignments_;
  std::vector<std::size_t> top_;
  std::vector<std::size_t> reference_top_;
};

}  // namespace

CallTimer::CallTimer(OpRecord& rec, std::string name)
    : rec_(rec),
      name_(std::move(name)),
      span_("bench." + name_),
      start_(now_seconds()) {}

CallTimer::~CallTimer() { rec_.calls[name_] += now_seconds() - start_; }

std::unique_ptr<Workload> make_workload(const WorkloadParams& params) {
  if (params.op == "inmem") return std::make_unique<InMemoryRelease>(params);
  if (params.op == "sharded") return std::make_unique<ShardedRelease>(params);
  if (params.op == "analyst") return std::make_unique<AnalystQueries>(params);
  throw std::invalid_argument("unknown op kind: " + params.op);
}

}  // namespace sgp::perfbench
