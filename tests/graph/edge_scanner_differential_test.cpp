// scan_edge_list (chunked, from_chars) against the getline/istringstream
// scanner it replaced (reference_edge_scanner.hpp). On every input both
// must accept or reject alike, reject at the same line with the same
// message, report the same EdgeScanStats and deliver the same edge
// sequence. The one permitted difference is a signed id: the reference
// wraps it, the scanner rejects it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "edge_list_corpora.hpp"
#include "graph/io.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "random/rng.hpp"
#include "reference_edge_scanner.hpp"
#include "util/errors.hpp"

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

/// A few MB of every line shape the grammar allows: edge lines with
/// `\v`/`\f`/tab/CR padding, leading zeros, trailing comments, self loops and
/// repeats; blank lines; comments; headers; CRLF endings; comment lines of
/// 64 KiB - 1, 64 KiB, 64 KiB + 1 and about 2.3 × 64 KiB bytes. Every 64 KiB
/// boundary of the stream falls inside a line, and the last line has no
/// newline.
std::string generated_edge_list(std::uint64_t seed) {
  random::Rng rng(seed);
  const auto pick = [&](const char* chars, std::size_t n) {
    std::string out;
    const std::string_view set(chars);
    for (std::size_t i = 0; i < n; ++i) out += set[rng.next_below(set.size())];
    return out;
  };
  const auto id = [&] {
    std::string digits = std::to_string(rng.next_below(5000));
    if (rng.next_below(16) == 0) digits.insert(0, "00");
    return digits;
  };

  std::string text;
  const std::vector<std::size_t> long_comments = {
      kBufferBytes - 1, kBufferBytes, kBufferBytes + 1, 150'000};
  std::size_t next_long = 0;
  while (text.size() < 3'000'000) {
    std::string line;
    const std::uint64_t kind = rng.next_below(20);
    if (kind == 0) {
      line = "# " + pick("abcdef ghij\t#0123456789", rng.next_below(120));
    } else if (kind == 1) {
      line = pick(" \t\r", rng.next_below(5));
    } else if (kind == 2) {
      line = "# sgp edge list: " + std::to_string(rng.next_below(9000)) +
             " nodes, 12 edges";
    } else if (kind == 3 && next_long < long_comments.size() &&
               text.size() > (next_long + 1) * 500'000) {
      const std::size_t length = long_comments[next_long++];
      line = "#" + std::string(length - 1, 'c');
    } else {
      const std::string u = id();
      const std::string v = kind == 4 ? u : id();  // kind 4: a self loop
      line = pick(" \t\v\f", rng.next_below(3)) + u +
             pick(" \t\v\f\r", 1 + rng.next_below(2)) + v +
             pick(" \t\r", rng.next_below(3));
      if (kind == 5) line += " # trailing note";
    }
    text += line;
    text += rng.next_below(3) == 0 ? "\r\n" : "\n";
  }
  // Push each boundary that would fall between two lines into the line
  // before it; a space before the newline is trailing whitespace.
  for (std::size_t b = kBufferBytes; b < text.size(); b += kBufferBytes) {
    if (text[b - 1] == '\n') text.insert(b - 1, " ");
  }
  text += "17 42";  // the last line has no newline
  return text;
}

TEST(ScannerDifferential, GeneratedMegabytesAgreeFromStringAndFile) {
  const std::string text = generated_edge_list(20261017);
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
  std::string text = generated_edge_list(7);
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

}  // namespace
}  // namespace sgp::graph
