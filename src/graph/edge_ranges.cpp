#include "graph/edge_ranges.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/errors.hpp"

namespace sgp::graph::detail {
namespace {

/// Blank lines and the tail after the second id may hold only these.
bool is_line_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Bytes read by the first probe for the line start after a cut; each
/// further probe reads twice as many, up to kScanBufferBytes. A cut costs
/// about one line of extra reading.
constexpr std::size_t kFirstProbeBytes = 16;

}  // namespace

LineParser::LineParser(IdPolicy policy, std::uint64_t max_preserved_id)
    : policy_(policy),
      // The id type caps preserved ids at 2^32 - 1 regardless of the
      // caller's configured limit.
      id_cap_(std::min<std::uint64_t>(max_preserved_id, 0xFFFFFFFFULL)) {}

LineParser::Kind LineParser::parse_general(const char* first, const char* last,
                                           EdgeScanStats& stats,
                                           std::uint64_t& u, std::uint64_t& v,
                                           std::string& why) const {
  const auto* hash = static_cast<const char*>(
      std::memchr(first, '#', static_cast<std::size_t>(last - first)));
  if (hash != nullptr) {
    // Our own writer declares the node count in a comment; honor it under
    // kPreserve so trailing isolated nodes survive a round trip.
    if (policy_ == IdPolicy::kPreserve) {
      std::istringstream header(std::string(hash + 1, last));
      std::string word;
      std::size_t count = 0;
      // Matches "... : <N> nodes ..." from write_edge_list.
      while (header >> word) {
        if (word == "nodes" || word == "nodes,") break;
        std::istringstream num(word);
        std::size_t candidate = 0;
        if (num >> candidate && num.eof()) count = candidate;
      }
      if (word == "nodes" || word == "nodes,") {
        // A lying header is as dangerous as a hostile id: it sizes the
        // node arrays directly.
        if (count > id_cap_ + 1) {
          why = "header declares " + std::to_string(count) +
                " nodes, above the preserve-policy cap of " +
                std::to_string(id_cap_ + 1);
          return Kind::kError;
        }
        stats.declared_nodes = std::max(stats.declared_nodes, count);
      }
    }
    last = hash;
  }
  if (std::all_of(first, last, is_line_space)) {
    return Kind::kSkip;  // blank or comment-only line
  }
  const char* p = id(first, last, u);
  if (p == nullptr) {
    why = "expected a numeric node id";
    return Kind::kError;
  }
  p = id(p, last, v);
  if (p == nullptr) {
    why = "expected two node ids, got one";
    return Kind::kError;
  }
  // Reject anything after the second id that is not whitespace — a third
  // field, stray NUL bytes, or binary garbage all indicate a format the
  // caller did not intend to feed us.
  if (!std::all_of(p, last, is_line_space)) {
    why = "unexpected trailing content after the two ids";
    return Kind::kError;
  }
  if (u == v) return Kind::kSkip;  // drop self loop
  if (policy_ == IdPolicy::kPreserve) {
    const std::uint64_t hi = std::max(u, v);
    if (hi > id_cap_) {
      why = "node id " + std::to_string(hi) +
            " exceeds the preserve-policy cap of " + std::to_string(id_cap_);
      return Kind::kError;
    }
    stats.max_raw_id = std::max(stats.max_raw_id, hi);
  }
  ++stats.edge_records;
  return Kind::kEdge;
}

EdgeScanStats merge_scans(std::span<const RangeScan> scans) {
  EdgeScanStats total;
  for (const RangeScan& scan : scans) {
    const std::size_t line = total.lines + scan.failure_line;
    switch (scan.failure) {
      case RangeScan::Failure::kNone:
        break;
      case RangeScan::Failure::kParse:
        throw util::ParseError("edge list: line " + std::to_string(line) +
                               ": " + scan.why);
      case RangeScan::Failure::kRead:
        throw util::IoError("edge list: stream read error at line " +
                            std::to_string(line));
      case RangeScan::Failure::kThrown:
        std::rethrow_exception(scan.thrown);
    }
    total.lines += scan.stats.lines;
    total.edge_records += scan.stats.edge_records;
    total.max_raw_id = std::max(total.max_raw_id, scan.stats.max_raw_id);
    total.declared_nodes =
        std::max(total.declared_nodes, scan.stats.declared_nodes);
  }
  // One bulk add per pass, not one per line — keeps the loop clean.
  static obs::Counter& lines_read = obs::counter(obs::names::kIoLinesRead);
  static obs::Counter& edges_read = obs::counter(obs::names::kIoEdgesRead);
  lines_read.add(total.lines);
  edges_read.add(total.edge_records);
  return total;
}

EdgeFile::EdgeFile(const std::string& path, const std::string& open_error) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) throw util::IoError(open_error + path);
  struct stat st {};
  if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) {
    regular_ = true;
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
}

EdgeFile::~EdgeFile() { ::close(fd_); }

Fill EdgeFile::Reader::operator()(char* dst, std::size_t n) {
  if (!stream) n = static_cast<std::size_t>(std::min<std::uint64_t>(n, end - pos));
  if (n == 0) return {0, true, false};
  ssize_t got = 0;
  do {
    got = stream ? ::read(fd, dst, n)
                 : ::pread(fd, dst, n, static_cast<off_t>(pos));
  } while (got < 0 && errno == EINTR);
  if (got < 0) return {0, true, true};
  pos += static_cast<std::uint64_t>(got);
  // A regular file that shrank since it was opened ends early.
  return {static_cast<std::size_t>(got), got == 0 || (!stream && pos == end),
          false};
}

std::uint64_t EdgeFile::line_start_at_or_after(std::uint64_t offset) const {
  if (offset == 0 || offset >= size_) return std::min(offset, size_);
  // The line start is one past the first '\n' at or after offset - 1.
  std::vector<char> probe(kFirstProbeBytes);
  for (std::uint64_t at = offset - 1; at < size_;) {
    const ssize_t got =
        ::pread(fd_, probe.data(), probe.size(), static_cast<off_t>(at));
    if (got <= 0) break;  // the range scans report what went wrong
    const auto* newline = static_cast<const char*>(
        std::memchr(probe.data(), '\n', static_cast<std::size_t>(got)));
    if (newline != nullptr) {
      return at + static_cast<std::uint64_t>(newline - probe.data()) + 1;
    }
    at += static_cast<std::uint64_t>(got);
    probe.resize(std::min(2 * probe.size(), kScanBufferBytes));
  }
  return size_;
}

std::vector<std::uint64_t> EdgeFile::range_bounds(
    const util::ThreadPool& pool,
    const std::optional<std::vector<std::uint64_t>>& cuts) const {
  std::vector<std::uint64_t> bounds = {0};
  if (regular_) {
    std::vector<std::uint64_t> nominal;
    if (cuts) {
      nominal = *cuts;
      std::sort(nominal.begin(), nominal.end());
    } else {
      const std::uint64_t ranges = std::clamp<std::uint64_t>(
          size_ / kMinRangeBytes, 1, std::max<std::size_t>(pool.size(), 1));
      for (std::uint64_t r = 1; r < ranges; ++r) {
        nominal.push_back(size_ / ranges * r);
      }
    }
    for (const std::uint64_t offset : nominal) {
      bounds.push_back(line_start_at_or_after(offset));
    }
  }
  bounds.push_back(regular_ ? size_ : 0);
  return bounds;
}

}  // namespace sgp::graph::detail
