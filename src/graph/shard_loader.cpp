#include "graph/shard_loader.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "graph/csr_rows.hpp"
#include "graph/edge_ranges.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/splitmix.hpp"

namespace sgp::graph {
namespace {

constexpr char kOpenError[] = "shard loader: cannot open edge list file: ";

/// The fingerprint's multiplier (odd, so every power of it is too).
constexpr std::uint64_t kFoldMultiplier = 0x9e3779b97f4a7c15ULL;

/// kFoldMultiplier^e mod 2^64.
std::uint64_t fold_power(std::uint64_t e) {
  std::uint64_t result = 1;
  for (std::uint64_t base = kFoldMultiplier; e != 0; e >>= 1) {
    if ((e & 1) != 0) result *= base;
    base *= base;
  }
  return result;
}

/// What the construction scan keeps of one range.
struct ScanPart {
  std::uint64_t fingerprint = 0;  ///< the range's fold, from 0
  std::uint64_t records = 0;
  detail::IdTable ids;            ///< kCompact: the range's first-seen ids
};

}  // namespace

EdgeListShardReader::EdgeListShardReader(std::string path, IdPolicy policy,
                                         std::uint64_t max_preserved_id)
    : EdgeListShardReader(std::move(path), policy, max_preserved_id,
                          util::global_pool(), std::nullopt) {}

EdgeListShardReader::EdgeListShardReader(
    std::string path, IdPolicy policy, std::uint64_t max_preserved_id,
    util::ThreadPool& pool, std::optional<std::vector<std::uint64_t>> cuts)
    : path_(std::move(path)),
      policy_(policy),
      max_preserved_id_(max_preserved_id),
      cuts_(std::move(cuts)) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoReadShard);
  const detail::EdgeFile file(path_, kOpenError);
  std::vector<ScanPart> parts;
  const EdgeScanStats stats = file.scan(
      detail::LineParser(policy_, max_preserved_id_), pool, cuts_, parts,
      [compact = policy_ == IdPolicy::kCompact](
          ScanPart& part, std::uint64_t u_raw, std::uint64_t v_raw) {
        // One mix per record; the rotation keeps (u, v) and (v, u) apart.
        part.fingerprint = part.fingerprint * kFoldMultiplier +
                           util::splitmix64(u_raw ^ std::rotl(v_raw, 32));
        ++part.records;
        if (compact) {
          part.ids.intern(u_raw);
          part.ids.intern(v_raw);
        }
      });
  // The ranges' first-seen ids, in range order, number the nodes in
  // first-appearance order over the whole file.
  if (!parts.empty()) ids_ = std::move(parts[0].ids);
  for (ScanPart& part : parts) {
    fingerprint_ = fingerprint_ * fold_power(part.records) + part.fingerprint;
    for (const std::uint64_t raw : part.ids.keys()) ids_.intern(raw);
    part.ids = detail::IdTable();
  }
  edge_records_ = stats.edge_records;
  // Mirrors read_edge_list's node-count rule exactly.
  num_nodes_ = ids_.size();
  if (policy_ == IdPolicy::kPreserve) {
    num_nodes_ = stats.edge_records > 0
                     ? static_cast<std::size_t>(stats.max_raw_id) + 1
                     : 0;
    num_nodes_ = std::max(num_nodes_, stats.declared_nodes);
  }
  timer.attr("nodes", num_nodes_).attr("edges", edge_records_);
}

ShardRows EdgeListShardReader::load_shard(std::size_t row_begin,
                                          std::size_t row_end,
                                          util::ThreadPool& pool) const {
  util::require(row_begin <= row_end && row_end <= num_nodes_,
                "shard loader: row range must lie within [0, num_nodes]");
  util::fault_point(util::fault_points::kIoShardRead);
  obs::ScopedTimer timer(obs::names::kIoReadShard);
  timer.attr("row_begin", row_begin).attr("row_end", row_end);

  const auto resolve = [this](std::uint64_t raw) -> std::uint32_t {
    if (policy_ == IdPolicy::kPreserve) return static_cast<std::uint32_t>(raw);
    const std::uint32_t id = ids_.find(raw);
    // Every id was interned during the construction scan; a miss means the
    // file changed under us.
    if (id == detail::IdTable::kMissing) {
      throw util::IoError("shard loader: " + path_ +
                          " changed since construction (unknown node id)");
    }
    return id;
  };

  // Every edge with an endpoint in the shard, per range; build_csr_rows
  // then orders and merges each row exactly as Graph::from_edges does.
  const detail::EdgeFile file(path_, kOpenError);
  std::vector<detail::EdgeChunks> incident;
  const EdgeScanStats stats = file.scan(
      detail::LineParser(policy_, max_preserved_id_), pool, cuts_, incident,
      [&](detail::EdgeChunks& part, std::uint64_t u_raw, std::uint64_t v_raw) {
        const std::uint32_t u = resolve(u_raw);
        const std::uint32_t v = resolve(v_raw);
        if ((u >= row_begin && u < row_end) ||
            (v >= row_begin && v < row_end)) {
          part.push_back({u, v});
        }
      });
  if (stats.edge_records != edge_records_) {
    throw util::IoError("shard loader: " + path_ +
                        " changed since construction (edge count drifted)");
  }

  std::vector<std::span<const Edge>> parts;
  for (const detail::EdgeChunks& part : incident) part.spans(parts);
  detail::CsrRows rows =
      detail::build_csr_rows(parts, row_begin, row_end, &pool);
  ShardRows shard;
  shard.row_begin = row_begin;
  shard.row_end = row_end;
  shard.offsets = std::move(rows.offsets);
  shard.adjacency = std::move(rows.adjacency);
  return shard;
}

namespace detail {

EdgeListShardReader make_shard_reader(
    std::string path, IdPolicy policy, std::uint64_t max_preserved_id,
    util::ThreadPool& pool, std::optional<std::vector<std::uint64_t>> cuts) {
  return EdgeListShardReader(std::move(path), policy, max_preserved_id, pool,
                             std::move(cuts));
}

}  // namespace detail
}  // namespace sgp::graph
