#include "graph/shard_loader.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <utility>

#include "graph/csr_rows.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/splitmix.hpp"

namespace sgp::graph {
namespace {

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError("shard loader: cannot open edge list file: " + path);
  }
  return in;
}

}  // namespace

EdgeListShardReader::EdgeListShardReader(std::string path, IdPolicy policy,
                                         std::uint64_t max_preserved_id)
    : path_(std::move(path)),
      policy_(policy),
      max_preserved_id_(max_preserved_id) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoReadShard);
  std::ifstream in = open_or_throw(path_);
  const EdgeScanStats stats = scan_edge_list(
      in, policy_, max_preserved_id_,
      [&](std::uint64_t u_raw, std::uint64_t v_raw) {
        // One mix per record; the rotation keeps (u, v) and (v, u) apart.
        fingerprint_ =
            util::splitmix64(fingerprint_ ^ u_raw ^ std::rotl(v_raw, 32));
        if (policy_ == IdPolicy::kCompact) {
          remap_.emplace(u_raw, static_cast<std::uint32_t>(remap_.size()));
          remap_.emplace(v_raw, static_cast<std::uint32_t>(remap_.size()));
        }
      });
  edge_records_ = stats.edge_records;
  // Mirrors read_edge_list's node-count rule exactly.
  num_nodes_ = remap_.size();
  if (policy_ == IdPolicy::kPreserve) {
    num_nodes_ = stats.edge_records > 0
                     ? static_cast<std::size_t>(stats.max_raw_id) + 1
                     : 0;
    num_nodes_ = std::max(num_nodes_, stats.declared_nodes);
  }
  timer.attr("nodes", num_nodes_).attr("edges", edge_records_);
}

ShardRows EdgeListShardReader::load_shard(std::size_t row_begin,
                                          std::size_t row_end) const {
  util::require(row_begin <= row_end && row_end <= num_nodes_,
                "shard loader: row range must lie within [0, num_nodes]");
  util::fault_point(util::fault_points::kIoShardRead);
  obs::ScopedTimer timer(obs::names::kIoReadShard);
  timer.attr("row_begin", row_begin).attr("row_end", row_end);

  const auto resolve = [this](std::uint64_t raw) -> std::uint32_t {
    if (policy_ == IdPolicy::kPreserve) return static_cast<std::uint32_t>(raw);
    const auto it = remap_.find(raw);
    // Every id was interned during the construction scan; a miss means the
    // file changed under us.
    if (it == remap_.end()) {
      throw util::IoError("shard loader: " + path_ +
                          " changed since construction (unknown node id)");
    }
    return it->second;
  };

  // Every edge with an endpoint in the shard; build_csr_rows then
  // orders and merges each row exactly as Graph::from_edges does.
  std::vector<Edge> incident;
  std::ifstream in = open_or_throw(path_);
  const EdgeScanStats stats = scan_edge_list(
      in, policy_, max_preserved_id_,
      [&](std::uint64_t u_raw, std::uint64_t v_raw) {
        const std::uint32_t u = resolve(u_raw);
        const std::uint32_t v = resolve(v_raw);
        if ((u >= row_begin && u < row_end) ||
            (v >= row_begin && v < row_end)) {
          incident.push_back({u, v});
        }
      });
  if (stats.edge_records != edge_records_) {
    throw util::IoError("shard loader: " + path_ +
                        " changed since construction (edge count drifted)");
  }

  detail::CsrRows rows = detail::build_csr_rows(incident, row_begin, row_end);
  ShardRows shard;
  shard.row_begin = row_begin;
  shard.row_end = row_end;
  shard.offsets = std::move(rows.offsets);
  shard.adjacency = std::move(rows.adjacency);
  return shard;
}

}  // namespace sgp::graph
