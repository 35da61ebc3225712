// scan_edge_list (chunked, from_chars) against the getline/istringstream
// scanner it replaced (reference_edge_scanner.hpp). On every input both
// must accept or reject alike, reject at the same line with the same
// message, report the same EdgeScanStats and deliver the same edge
// sequence. The one permitted difference is a signed id: the reference
// wraps it, the scanner rejects it.
//
// The file path is then cut into ranges at every byte offset of the small
// corpora, and at planned and forced cuts of the generated megabytes, and
// read on pools of 1, 2, 3 and 8 threads: every cut and pool must read the
// reference's graph, counts and fingerprint, or fail with the sequential
// scanner's message and line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "edge_list_corpora.hpp"
#include "graph/edge_ranges.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "reference_edge_scanner.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace sgp::graph {
namespace {

constexpr std::size_t kBufferBytes = 64 * 1024;  // the scanner's read size

struct ScanOutcome {
  bool accepted = false;
  std::string error;  ///< ParseError text when rejected
  EdgeScanStats stats;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
};

template <typename Scan>
ScanOutcome run(Scan scan, std::istream& in, IdPolicy policy) {
  ScanOutcome out;
  try {
    out.stats = scan(in, policy, kDefaultMaxPreservedNodeId,
                     [&](std::uint64_t u, std::uint64_t v) {
                       out.edges.emplace_back(u, v);
                     });
    out.accepted = true;
  } catch (const util::ParseError& e) {
    out.error = e.what();
  }
  return out;
}

ScanOutcome scan_new(const std::string& text, IdPolicy policy) {
  std::istringstream in(text);
  return run(scan_edge_list, in, policy);
}

ScanOutcome scan_reference(const std::string& text, IdPolicy policy) {
  std::istringstream in(text);
  return run(reference::scan_edge_list, in, policy);
}

void expect_identical(const ScanOutcome& got, const ScanOutcome& want) {
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.stats.lines, want.stats.lines);
  EXPECT_EQ(got.stats.edge_records, want.stats.edge_records);
  EXPECT_EQ(got.stats.max_raw_id, want.stats.max_raw_id);
  EXPECT_EQ(got.stats.declared_nodes, want.stats.declared_nodes);
  EXPECT_EQ(got.edges, want.edges);
}

/// Line `line_no` (1-based) of `text`.
std::string line_of(const std::string& text, std::size_t line_no) {
  std::istringstream in(text);
  std::string line;
  for (std::size_t i = 0; i < line_no; ++i) std::getline(in, line);
  return line;
}

/// The line number in an "edge list: line N: ..." message.
std::size_t error_line(const std::string& error) {
  return std::stoul(error.substr(error.find("line ") + 5));
}

/// The scanner rejected a signed id that the reference wrapped: it stopped
/// at a line holding a sign, with one of the two id messages, after
/// delivering exactly the reference's edges from the lines before it.
void expect_signed_rejection(const std::string& text, const ScanOutcome& got,
                             const ScanOutcome& want) {
  ASSERT_FALSE(got.accepted) << "a signed id must be rejected";
  EXPECT_TRUE(got.error.ends_with("expected a numeric node id") ||
              got.error.ends_with("expected two node ids, got one"))
      << got.error;
  EXPECT_NE(line_of(text, error_line(got.error)).find_first_of("+-"),
            std::string::npos)
      << got.error;
  ASSERT_LE(got.edges.size(), want.edges.size());
  EXPECT_TRUE(std::equal(got.edges.begin(), got.edges.end(),
                         want.edges.begin()));
}

/// Agreement, except where the scanner rejects a sign the reference wrapped.
void expect_agree(const std::string& text, IdPolicy policy) {
  const ScanOutcome got = scan_new(text, policy);
  const ScanOutcome want = scan_reference(text, policy);
  const bool sign_rejected =
      !got.accepted && (want.accepted || want.error != got.error) &&
      line_of(text, error_line(got.error)).find_first_of("+-") !=
          std::string::npos;
  if (sign_rejected) {
    expect_signed_rejection(text, got, want);
  } else {
    expect_identical(got, want);
  }
}

class ScannerCorpusDifferential : public testing::TestWithParam<std::string> {
};

TEST_P(ScannerCorpusDifferential, AgreesWithReferenceUnderBothPolicies) {
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    SCOPED_TRACE(policy == IdPolicy::kCompact ? "kCompact" : "kPreserve");
    expect_agree(GetParam(), policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Garbage, ScannerCorpusDifferential,
                         testing::ValuesIn(corpora::garbage_edge_lists()));
INSTANTIATE_TEST_SUITE_P(HostileInputs, ScannerCorpusDifferential,
                         testing::ValuesIn(corpora::hostile_edge_lists()));

TEST(ScannerDifferential, SignedIdsAreTheOnlyDifference) {
  for (const std::string& text : corpora::signed_id_edge_lists()) {
    SCOPED_TRACE(text);
    for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
      const ScanOutcome got = scan_new(text, policy);
      const ScanOutcome want = scan_reference(text, policy);
      // The reference wraps signs (or, for a wrapped id above the preserve
      // cap, rejects it as too large), so it never stops where we do with
      // one of the id messages.
      EXPECT_TRUE(want.accepted ||
                  want.error.find("exceeds the preserve-policy cap") !=
                      std::string::npos)
          << want.error;
      expect_signed_rejection(text, got, want);
    }
  }
}

TEST(ScannerDifferential, GeneratedMegabytesAgreeFromStringAndFile) {
  const std::string text = corpora::generated_edge_list(20261017);
  ASSERT_GT(text.size(), 40 * kBufferBytes);
  const std::string path = testing::TempDir() + "/sgp_scanner_diff.edges";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    SCOPED_TRACE(policy == IdPolicy::kCompact ? "kCompact" : "kPreserve");
    const ScanOutcome want = scan_reference(text, policy);
    ASSERT_TRUE(want.accepted) << want.error;
    ASSERT_GT(want.stats.edge_records, 100'000u);
    EXPECT_EQ(want.edges.back(),
              (std::pair<std::uint64_t, std::uint64_t>{17, 42}));

    obs::set_metrics_enabled(true);
    obs::Counter& lines_read = obs::counter(obs::names::kIoLinesRead);
    obs::Counter& edges_read = obs::counter(obs::names::kIoEdgesRead);
    const std::uint64_t lines_before = lines_read.value();
    const std::uint64_t edges_before = edges_read.value();
    expect_identical(scan_new(text, policy), want);
    EXPECT_EQ(lines_read.value() - lines_before, want.stats.lines);
    EXPECT_EQ(edges_read.value() - edges_before, want.stats.edge_records);
    obs::set_metrics_enabled(false);

    std::ifstream file(path, std::ios::binary);
    expect_identical(run(scan_edge_list, file, policy), want);
  }
  std::remove(path.c_str());
}

TEST(ScannerDifferential, LateErrorReportsTheSameLine) {
  // A malformed line a few MB in, just after a 64 KiB boundary.
  std::string text = corpora::generated_edge_list(7);
  text.resize(text.rfind('\n', 20 * kBufferBytes) + 1);
  text += "3 4\n12 x 9\n5 6\n";
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    const ScanOutcome want = scan_reference(text, policy);
    ASSERT_FALSE(want.accepted);
    EXPECT_NE(want.error.find("expected two node ids, got one"),
              std::string::npos);
    expect_identical(scan_new(text, policy), want);
  }
}

// --- The file path, cut into ranges (graph/edge_ranges.hpp) ---------------

/// Every cut is read on pools of each of these sizes.
constexpr std::size_t kPoolSizes[] = {1, 2, 3, 8};

using Cuts = std::optional<std::vector<std::uint64_t>>;

/// `text` in a file of this test process.
std::string edges_file(const std::string& text) {
  const std::string path = testing::TempDir() + "/sgp_range_cuts_" +
                           std::to_string(::getpid()) + ".edges";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  return path;
}

/// What reading `text` must give: the one-pass reference's graph, counts and
/// fingerprint, or, when the scanner rejects the text, the sequential
/// scanner's message (held to the reference by the tests above).
struct Expected {
  std::optional<reference::Read> read;
  std::string error;
};

Expected expected_read(const std::string& text, IdPolicy policy) {
  const ScanOutcome sequential = scan_new(text, policy);
  if (!sequential.accepted) return {std::nullopt, sequential.error};
  std::istringstream in(text);
  return {reference::read_edge_list(in, policy, kDefaultMaxPreservedNodeId),
          ""};
}

/// read_edge_list_file and the shard reader's scan, on `pool` and cut at
/// `cuts`, against `want`: the same graph, EdgeScanStats, io counters,
/// node and record counts and fingerprint, or the same error.
void expect_file_reads(const std::string& path, IdPolicy policy,
                       util::ThreadPool& pool, const Cuts& cuts,
                       const Expected& want) {
  obs::set_metrics_enabled(true);
  obs::Counter& lines_read = obs::counter(obs::names::kIoLinesRead);
  obs::Counter& edges_read = obs::counter(obs::names::kIoEdgesRead);
  const std::uint64_t lines_before = lines_read.value();
  const std::uint64_t edges_before = edges_read.value();
  std::optional<detail::EdgeListRead> got;
  std::string error;
  try {
    got = detail::read_edge_list_file(path, policy, kDefaultMaxPreservedNodeId,
                                      pool, cuts);
  } catch (const util::ParseError& e) {
    error = e.what();
  }
  const std::uint64_t lines_counted = lines_read.value() - lines_before;
  const std::uint64_t edges_counted = edges_read.value() - edges_before;
  obs::set_metrics_enabled(false);

  if (!want.read) {
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(error, want.error);
    EXPECT_EQ(lines_counted, 0u);
    EXPECT_EQ(edges_counted, 0u);
    try {
      (void)detail::make_shard_reader(path, policy, kDefaultMaxPreservedNodeId,
                                      pool, cuts);
      ADD_FAILURE() << "the shard reader accepted what the scanner rejects";
    } catch (const util::ParseError& e) {
      EXPECT_EQ(std::string(e.what()), want.error);
    }
    return;
  }
  ASSERT_TRUE(got.has_value()) << error;
  ASSERT_EQ(got->graph.num_nodes(), want.read->graph.num_nodes());
  EXPECT_EQ(got->graph.edges(), want.read->graph.edges());
  EXPECT_EQ(got->stats.lines, want.read->stats.lines);
  EXPECT_EQ(got->stats.edge_records, want.read->stats.edge_records);
  EXPECT_EQ(got->stats.max_raw_id, want.read->stats.max_raw_id);
  EXPECT_EQ(got->stats.declared_nodes, want.read->stats.declared_nodes);
  EXPECT_EQ(lines_counted, want.read->stats.lines);
  EXPECT_EQ(edges_counted, want.read->stats.edge_records);

  const EdgeListShardReader reader = detail::make_shard_reader(
      path, policy, kDefaultMaxPreservedNodeId, pool, cuts);
  EXPECT_EQ(reader.num_nodes(), want.read->graph.num_nodes());
  EXPECT_EQ(reader.edge_records(), want.read->stats.edge_records);
  EXPECT_EQ(reader.fingerprint(), want.read->fingerprint);
}

const char* policy_name(IdPolicy policy) {
  return policy == IdPolicy::kCompact ? "kCompact" : "kPreserve";
}

class RangeCutDifferential : public testing::TestWithParam<std::string> {};

TEST_P(RangeCutDifferential, EveryCutOnEveryPoolReadsLikeTheReference) {
  const std::string& text = GetParam();
  const std::string path = edges_file(text);
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    SCOPED_TRACE(policy_name(policy));
    const Expected want = expected_read(text, policy);
    for (const std::size_t threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("pool of " + std::to_string(threads));
      expect_file_reads(path, policy, pool, std::nullopt, want);
      for (std::uint64_t cut = 0; cut <= text.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        expect_file_reads(path, policy, pool, Cuts{{cut}}, want);
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Garbage, RangeCutDifferential,
                         testing::ValuesIn(corpora::garbage_edge_lists()));
INSTANTIATE_TEST_SUITE_P(HostileInputs, RangeCutDifferential,
                         testing::ValuesIn(corpora::hostile_edge_lists()));

TEST(RangeCutDifferential, TheFirstOfTwoErrorsWinsWhereverTheCutsFall) {
  // Line 2 has no id and line 4 a third field, so two cuts can put each
  // error in a range of its own, or both in one.
  const std::string text = "0 1\nx 2\n3 4\n5 6 7\n8 9\n";
  const std::string path = edges_file(text);
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    SCOPED_TRACE(policy_name(policy));
    const Expected want = expected_read(text, policy);
    ASSERT_FALSE(want.read.has_value());
    ASSERT_EQ(want.error, "edge list: line 2: expected a numeric node id");
    for (const std::size_t threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("pool of " + std::to_string(threads));
      for (std::uint64_t first = 0; first <= text.size(); ++first) {
        for (std::uint64_t second = first; second <= text.size(); ++second) {
          SCOPED_TRACE("cuts at " + std::to_string(first) + ", " +
                       std::to_string(second));
          expect_file_reads(path, policy, pool, Cuts{{first, second}}, want);
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(RangeCutDifferential, GeneratedMegabytesReadAlikeOnEveryPool) {
  const std::string text = corpora::generated_edge_list(20261017);
  const std::string path = edges_file(text);
  const std::uint64_t size = text.size();
  // The planned cuts; eight even ranges; cuts around the first 64 KiB
  // boundaries (each inside a line); and cuts inside the 150,000-byte
  // comment line, whose line start the cut probes must chase.
  std::vector<Cuts> cut_sets = {std::nullopt};
  std::vector<std::uint64_t> even;
  for (std::uint64_t r = 1; r < 8; ++r) even.push_back(size * r / 8);
  cut_sets.emplace_back(even);
  std::vector<std::uint64_t> boundaries;
  for (std::uint64_t b = 1; b <= 3; ++b) {
    const std::uint64_t at = b * kBufferBytes;
    boundaries.insert(boundaries.end(), {at - 1, at, at + 1});
  }
  cut_sets.emplace_back(boundaries);
  const std::uint64_t long_line = text.find(std::string(149'000, 'c'));
  ASSERT_NE(long_line, std::string::npos);
  cut_sets.push_back(Cuts{{long_line, long_line + 70'000}});

  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    SCOPED_TRACE(policy_name(policy));
    const Expected want = expected_read(text, policy);
    ASSERT_TRUE(want.read.has_value()) << want.error;
    for (const std::size_t threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      SCOPED_TRACE("pool of " + std::to_string(threads));
      for (std::size_t c = 0; c < cut_sets.size(); ++c) {
        SCOPED_TRACE("cut set " + std::to_string(c));
        expect_file_reads(path, policy, pool, cut_sets[c], want);
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgp::graph
