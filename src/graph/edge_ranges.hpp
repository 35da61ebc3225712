// Internal to graph/: the one edge-list line parser, run over byte ranges.
//
// Every reader in graph/ (read_edge_list, read_edge_list_file, scan_edge_list
// and EdgeListShardReader) parses with LineParser inside scan_range. A
// regular file is cut at line starts into at most pool-size ranges of at
// least kMinRangeBytes; each range is pread through its own buffer on the
// pool, fills its own part, and the parts are merged in file order. A stream
// or a non-regular file (a pipe) is one range. So the edge sequence, the
// counts and the first error are the same for any cut.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/id_table.hpp"
#include "graph/io.hpp"
#include "util/thread_pool.hpp"

namespace sgp::graph::detail {

/// A regular file is cut into ranges of at least this many bytes, at most
/// one per pool thread; a smaller file is one range.
inline constexpr std::uint64_t kMinRangeBytes = std::uint64_t{1} << 20;

/// Bytes each range reads per call. The buffers count toward the resident
/// set of every reader, the sharded publisher's included, so they stay
/// small; one grows only when a line is longer, since lines of any length
/// are accepted.
inline constexpr std::size_t kScanBufferBytes = 64 * 1024;

/// Edges appended in chunks that never move: a full chunk stays where it is
/// and the next one is twice its size, so growth maps pages but copies
/// nothing. A range's part is read in place, one span per chunk.
class EdgeChunks {
 public:
  void push_back(Edge e) {
    if (chunks_.empty() || chunks_.back().size() == chunks_.back().capacity()) {
      const std::size_t edges =
          chunks_.empty() ? kFirstChunkEdges : 2 * chunks_.back().capacity();
      chunks_.emplace_back().reserve(edges);
    }
    chunks_.back().push_back(e);
  }

  /// Appends one span per chunk to `spans`.
  void spans(std::vector<std::span<const Edge>>& spans) const {
    for (const PageVector<Edge>& chunk : chunks_) spans.emplace_back(chunk);
  }

  /// Every edge, in order, for renumbering in place.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (PageVector<Edge>& chunk : chunks_) {
      for (Edge& e : chunk) fn(e);
    }
  }

 private:
  static constexpr std::size_t kFirstChunkEdges = 8192;  // 64 KiB
  std::vector<PageVector<Edge>> chunks_;
};

/// The edge-list grammar of one line. A line is an edge record (two
/// unsigned decimal ids), blank, or a comment; '#' starts a comment, and
/// under IdPolicy::kPreserve a comment "... <N> nodes ..." declares a node
/// count.
class LineParser {
 public:
  enum class Kind { kSkip, kEdge, kError };

  LineParser(IdPolicy policy, std::uint64_t max_preserved_id);

  /// Parses [first, last), a line without its '\n'. kEdge sets u and v and
  /// counts the record in `stats`; kError sets `why`.
  Kind parse(const char* first, const char* last, EdgeScanStats& stats,
             std::uint64_t& u, std::uint64_t& v, std::string& why) const {
    // The common line, "<digits><field space><digits><line space>", takes
    // this path; anything else is parsed again from the start below.
    if (first != last && *first >= '0' && *first <= '9') {
      const char* p = id(first, last, u);
      if (p != nullptr) p = id(p, last, v);
      if (p != nullptr) {
        while (p != last && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
        if (p == last) {
          if (u == v) return Kind::kSkip;  // self loop
          if (policy_ == IdPolicy::kCompact) {
            ++stats.edge_records;
            return Kind::kEdge;
          }
          const std::uint64_t hi = u > v ? u : v;
          if (hi <= id_cap_) {
            if (hi > stats.max_raw_id) stats.max_raw_id = hi;
            ++stats.edge_records;
            return Kind::kEdge;
          }
        }
      }
    }
    return parse_general(first, last, stats, u, v, why);
  }

 private:
  /// Whitespace allowed before and between the ids: isspace() in the C
  /// locale, minus '\n', which never occurs inside a line.
  static bool is_field_space(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  }

  /// One unsigned decimal id after optional field whitespace: the position
  /// past its digits, or nullptr when there are no digits, it is signed or
  /// it overflows 64 bits.
  static const char* id(const char* p, const char* last, std::uint64_t& out) {
    while (p != last && is_field_space(*p)) ++p;
    const auto [next, ec] = std::from_chars(p, last, out);
    return ec == std::errc{} ? next : nullptr;
  }

  Kind parse_general(const char* first, const char* last, EdgeScanStats& stats,
                     std::uint64_t& u, std::uint64_t& v,
                     std::string& why) const;

  IdPolicy policy_;
  std::uint64_t id_cap_;
};

/// What a range's reader returned: `bytes` read, and whether the range is
/// done or the read failed.
struct Fill {
  std::size_t bytes = 0;
  bool done = false;
  bool failed = false;
};

/// What one range saw: counts local to the range, and what stopped it.
struct RangeScan {
  enum class Failure { kNone, kParse, kRead, kThrown };
  EdgeScanStats stats;
  Failure failure = Failure::kNone;
  std::size_t failure_line = 0;  ///< range-local line of the failure
  std::string why;               ///< kParse: the reason
  std::exception_ptr thrown;     ///< kThrown: what the edge callback threw
};

/// Reads one range through `read(dst, n) -> Fill` and parses it line by
/// line, calling `on_edge(u_raw, v_raw)` for every accepted record. Stops at
/// the first parse error, read error or exception from `on_edge`, and
/// records it instead of throwing: only the merge knows the global line.
template <typename Read, typename OnEdge>
RangeScan scan_range(Read&& read, const LineParser& parser, OnEdge&& on_edge) {
  RangeScan out;
  const auto line = [&](const char* first, const char* last) {
    ++out.stats.lines;
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    switch (parser.parse(first, last, out.stats, u, v, out.why)) {
      case LineParser::Kind::kEdge:
        on_edge(u, v);
        return true;
      case LineParser::Kind::kSkip:
        return true;
      case LineParser::Kind::kError:
        break;
    }
    out.failure = RangeScan::Failure::kParse;
    out.failure_line = out.stats.lines;
    return false;
  };
  try {
    // Lines are cut out of a fixed buffer; the unfinished line at the end of
    // a fill moves to the front and the next read appends.
    PageVector<char> buffer(kScanBufferBytes);
    std::size_t kept = 0;  // bytes of an unfinished line at the front
    for (;;) {
      if (kept == buffer.size()) buffer.resize(2 * buffer.size());
      const Fill fill = read(buffer.data() + kept, buffer.size() - kept);
      const char* const end = buffer.data() + kept + fill.bytes;
      const char* first = buffer.data();
      // The kept prefix holds no '\n', so the search starts after it.
      const char* search = first + kept;
      while (const auto* newline = static_cast<const char*>(std::memchr(
                 search, '\n', static_cast<std::size_t>(end - search)))) {
        if (!line(first, newline)) return out;
        first = search = newline + 1;
      }
      kept = static_cast<std::size_t>(end - first);
      if (fill.failed) {
        out.failure = RangeScan::Failure::kRead;
        out.failure_line = out.stats.lines;
        return out;
      }
      if (fill.done) {
        if (kept > 0) line(first, first + kept);  // last line, no '\n'
        return out;
      }
      std::memmove(buffer.data(), first, kept);
    }
  } catch (...) {
    out.failure = RangeScan::Failure::kThrown;
    out.thrown = std::current_exception();
  }
  return out;
}

/// The ranges' counts summed in file order. Throws the first failure in file
/// order, with its line counted from the start of the input:
/// util::ParseError "edge list: line N: ...", util::IoError "edge list:
/// stream read error at line N", or what an edge callback threw. Adds the
/// pass's io.lines_read and io.edges_read.
EdgeScanStats merge_scans(std::span<const RangeScan> scans);

/// An edge-list file open for scanning.
class EdgeFile {
 public:
  /// Opens `path`; throws util::IoError(`open_error` + path) if it cannot.
  EdgeFile(const std::string& path, const std::string& open_error);
  ~EdgeFile();
  EdgeFile(const EdgeFile&) = delete;
  EdgeFile& operator=(const EdgeFile&) = delete;

  /// Scans the file on `pool`: range r fills parts[r] through
  /// on_edge(parts[r], u_raw, v_raw). A regular file is cut at line starts:
  /// at `cuts` when given (sorted or not, each moved forward to the next line
  /// start), else into at most pool.size() ranges of at least
  /// kMinRangeBytes. A non-regular file is one range, read as a stream.
  /// Returns merge_scans of the ranges.
  template <typename Part, typename OnEdge>
  EdgeScanStats scan(const LineParser& parser, util::ThreadPool& pool,
                     const std::optional<std::vector<std::uint64_t>>& cuts,
                     std::vector<Part>& parts, const OnEdge& on_edge) const {
    const std::vector<std::uint64_t> bounds = range_bounds(pool, cuts);
    const std::size_t ranges = bounds.size() - 1;
    parts.clear();
    parts.resize(ranges);
    std::vector<RangeScan> scans(ranges);
    util::parallel_for(
        pool, 0, ranges,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            Part& part = parts[r];
            scans[r] = scan_range(
                reader(bounds[r], bounds[r + 1]), parser,
                [&](std::uint64_t u, std::uint64_t v) { on_edge(part, u, v); });
          }
        },
        /*grain=*/1);
    return merge_scans(scans);
  }

 private:
  /// Reads [pos, end) with pread, or the whole stream with read() when the
  /// file is not regular.
  struct Reader {
    int fd;
    bool stream;
    std::uint64_t pos;
    std::uint64_t end;
    Fill operator()(char* dst, std::size_t n);
  };
  [[nodiscard]] Reader reader(std::uint64_t begin, std::uint64_t end) const {
    return {fd_, !regular_, begin, end};
  }

  /// {0, cut, ..., size}: the line-start bounds of the ranges.
  [[nodiscard]] std::vector<std::uint64_t> range_bounds(
      const util::ThreadPool& pool,
      const std::optional<std::vector<std::uint64_t>>& cuts) const;
  /// The first line start at or after `offset`.
  [[nodiscard]] std::uint64_t line_start_at_or_after(std::uint64_t offset) const;

  int fd_ = -1;
  bool regular_ = false;
  std::uint64_t size_ = 0;
};

/// What read_edge_list_file read, and the counts of its scan.
struct EdgeListRead {
  Graph graph;
  EdgeScanStats stats;
};

/// read_edge_list_file on `pool`, with the file cut at `cuts` when given
/// (see EdgeFile::scan). The public overload plans the cuts; tests force
/// them, to show every cut reads the same graph.
EdgeListRead read_edge_list_file(
    const std::string& path, IdPolicy policy, std::uint64_t max_preserved_id,
    util::ThreadPool& pool,
    const std::optional<std::vector<std::uint64_t>>& cuts);

}  // namespace sgp::graph::detail
