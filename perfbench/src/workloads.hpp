// The benchmark's workloads. Each one owns its inputs (generated from the
// seed), its reference outputs, and one op: a closed sequence of calls into
// the library's public functions, each timed by the driver. The workload
// table in run.py supplies every size and privacy parameter as data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace sgp::perfbench {

struct WorkloadParams {
  std::string name;
  std::string op;       ///< inmem | sharded | analyst
  std::string workdir;  ///< generated files; removed by the caller
  std::uint64_t seed = 0;
  // Input graph: barabasi_albert(nodes, attach) for the publish ops,
  // social_network_model(communities × community_size, p_in, p_out,
  // hub_attach) for the analyst.
  std::size_t nodes = 0;
  std::size_t attach = 0;
  std::size_t communities = 0;
  std::size_t community_size = 0;
  double p_in = 0.0;
  double p_out = 0.0;
  std::size_t hub_attach = 0;
  // Release.
  std::size_t dim = 0;
  double epsilon = 0.0;
  double delta = 0.0;
  std::size_t shard_rows = 0;
  // Analyst queries.
  std::size_t clusters = 0;
  std::size_t top = 0;
};

/// One op as the driver saw it from outside.
struct OpRecord {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t read_bytes = 0;  ///< rchar growth during the op
  /// Driver timer per public call, keyed "<layer>.<call>".
  std::map<std::string, double> calls;
  /// Per-layer values the op measured itself, keyed by metric name (e.g.
  /// cluster.kmeans_iterations, analyst.cluster_s).
  std::map<std::string, double> counts;
  /// Spans finished during a traced op, library and driver alike.
  std::vector<obs::SpanRecord> spans;
  /// Empty when the op returned and passed its output check.
  std::string error;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One full set-up: generate the inputs from the seed, build the
  /// reference outputs, and run one untimed warm-up op whose outputs must
  /// pass the check. Repeating it regenerates identical inputs.
  virtual void set_up() = 0;

  /// The timed op: calls into the library through `rec`'s timers.
  virtual void op(OpRecord& rec) = 0;

  /// Checks the outputs of the last op; "" = correct.
  [[nodiscard]] virtual std::string check() = 0;

  /// What one op is, for the report: "release" or the analyst's queries.
  [[nodiscard]] virtual std::string op_name() const = 0;

  /// Per-layer values of one traced op, by BENCHMARK.json metric name; a
  /// metric the workload does not measure is left out.
  [[nodiscard]] virtual std::map<std::string, double> layer_metrics(
      const OpRecord& rec) const = 0;

  /// One line describing the generated input.
  [[nodiscard]] virtual std::string describe_input() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const WorkloadParams& params);

/// Times one public call: a steady-clock timer into rec.calls[name] and, in
/// traced ops, a span of the same name under "bench.".
class CallTimer {
 public:
  CallTimer(OpRecord& rec, std::string name);
  ~CallTimer();
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  OpRecord& rec_;
  std::string name_;
  obs::Span span_;
  double start_;
};

}  // namespace sgp::perfbench
