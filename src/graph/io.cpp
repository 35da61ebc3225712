#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_rows.hpp"
#include "graph/edge_ranges.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/thread_pool.hpp"

namespace sgp::graph {
namespace {

/// One range's share of a graph read: its edges, numbered under kCompact in
/// the range's own first-seen order.
struct GraphPart {
  detail::IdTable ids;
  detail::EdgeChunks edges;
};

/// The edge callback that fills a GraphPart.
auto fill_graph_part(IdPolicy policy) {
  return [policy](GraphPart& part, std::uint64_t u_raw, std::uint64_t v_raw) {
    if (policy == IdPolicy::kPreserve) {
      // The parser enforced the cap, so the ids fit.
      part.edges.push_back({static_cast<std::uint32_t>(u_raw),
                            static_cast<std::uint32_t>(v_raw)});
    } else {
      part.edges.push_back({part.ids.intern(u_raw), part.ids.intern(v_raw)});
    }
  };
}

/// The graph of the scanned parts. Under kCompact the ranges' first-seen
/// ids are merged in range order into one table, which numbers every node
/// in first-appearance order over the whole input, and each later range's
/// edges are renumbered into it; range 0's numbering already is the table's.
Graph graph_from_parts(std::vector<GraphPart>& parts,
                       const EdgeScanStats& stats, IdPolicy policy,
                       util::ThreadPool& pool) {
  std::size_t num_nodes = 0;
  if (policy == IdPolicy::kCompact) {
    std::vector<std::vector<std::uint32_t>> renumber(parts.size());
    {
      detail::IdTable table;
      if (!parts.empty()) table = std::move(parts[0].ids);
      for (std::size_t r = 1; r < parts.size(); ++r) {
        renumber[r].reserve(parts[r].ids.size());
        for (const std::uint64_t raw : parts[r].ids.keys()) {
          renumber[r].push_back(table.intern(raw));
        }
        parts[r].ids = detail::IdTable();
      }
      num_nodes = table.size();
    }
    util::parallel_for(
        pool, 1, parts.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            parts[r].edges.for_each([&map = renumber[r]](Edge& e) {
              e = {map[e.u], map[e.v]};
            });
          }
        },
        /*grain=*/1);
  } else {
    num_nodes = stats.edge_records > 0
                    ? static_cast<std::size_t>(stats.max_raw_id) + 1
                    : 0;
    num_nodes = std::max(num_nodes, stats.declared_nodes);
  }
  std::vector<std::span<const Edge>> edges;
  for (const GraphPart& part : parts) part.edges.spans(edges);
  return Graph::from_rows(detail::build_csr_rows(edges, 0, num_nodes, &pool));
}

/// A stream read as one range.
auto stream_reader(std::istream& in) {
  return [&in](char* dst, std::size_t n) {
    in.read(dst, static_cast<std::streamsize>(n));
    return detail::Fill{static_cast<std::size_t>(in.gcount()), !in, in.bad()};
  };
}

}  // namespace

EdgeScanStats scan_edge_list(
    std::istream& in, IdPolicy policy, std::uint64_t max_preserved_id,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_edge) {
  const detail::RangeScan scan =
      detail::scan_range(stream_reader(in),
                         detail::LineParser(policy, max_preserved_id), on_edge);
  return detail::merge_scans({&scan, 1});
}

Graph read_edge_list(std::istream& in, IdPolicy policy,
                     std::uint64_t max_preserved_id) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoReadEdges);
  std::vector<GraphPart> parts(1);
  const auto fill = fill_graph_part(policy);
  const detail::RangeScan scan = detail::scan_range(
      stream_reader(in), detail::LineParser(policy, max_preserved_id),
      [&](std::uint64_t u, std::uint64_t v) { fill(parts[0], u, v); });
  const EdgeScanStats stats = detail::merge_scans({&scan, 1});
  Graph g = graph_from_parts(parts, stats, policy, util::global_pool());
  timer.attr("nodes", g.num_nodes()).attr("edges", stats.edge_records);
  return g;
}

namespace detail {

EdgeListRead read_edge_list_file(
    const std::string& path, IdPolicy policy, std::uint64_t max_preserved_id,
    util::ThreadPool& pool,
    const std::optional<std::vector<std::uint64_t>>& cuts) {
  const EdgeFile file(path, "cannot open edge list file: ");
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoReadEdges);
  std::vector<GraphPart> parts;
  EdgeListRead read;
  read.stats = file.scan(LineParser(policy, max_preserved_id), pool, cuts,
                         parts, fill_graph_part(policy));
  read.graph = graph_from_parts(parts, read.stats, policy, pool);
  timer.attr("nodes", read.graph.num_nodes())
      .attr("edges", read.stats.edge_records);
  return read;
}

}  // namespace detail

Graph read_edge_list_file(const std::string& path, IdPolicy policy,
                          std::uint64_t max_preserved_id) {
  return detail::read_edge_list_file(path, policy, max_preserved_id,
                                     util::global_pool(), std::nullopt)
      .graph;
}

void write_edge_list(const Graph& g, std::ostream& out) {
  util::fault_point(util::fault_points::kIoWrite);
  obs::ScopedTimer timer(obs::names::kIoWriteEdges);
  timer.attr("nodes", g.num_nodes()).attr("edges", g.num_edges());
  out << "# sgp edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  for (const Edge& e : g.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
  static obs::Counter& edges_written = obs::counter(obs::names::kIoEdgesWritten);
  edges_written.add(g.num_edges());
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    throw util::IoError("cannot open output file: " + path);
  }
  write_edge_list(g, out);
  out.flush();
  if (!out.good()) {
    throw util::IoError("failed writing edge list to: " + path);
  }
}

}  // namespace sgp::graph
