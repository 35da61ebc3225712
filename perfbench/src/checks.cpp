#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>

#include "cluster/metrics.hpp"
#include "core/publisher.hpp"
#include "core/serialization.hpp"
#include "core/sharded_publish.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "random/rng.hpp"

namespace sgp::perfbench {
namespace {

std::string mismatch(const std::string& what, double got, double want) {
  return what + " " + std::to_string(got) + ", expected " +
         std::to_string(want);
}

/// Overwrites the last `bytes.size()` bytes of a file.
void overwrite_tail(const std::string& path, const std::string& bytes) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-static_cast<std::streamoff>(bytes.size()), std::ios::end);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

std::string check_release(const std::string& path,
                          const ReleaseExpectation& expect) {
  core::PublishedGraph release;
  try {
    release = core::load_published_file(path);
  } catch (const std::exception& e) {
    return std::string("release does not reload: ") + e.what();
  }
  if (release.num_nodes != expect.nodes || release.data.rows() != expect.nodes) {
    return mismatch("release has n =", static_cast<double>(release.num_nodes),
                    static_cast<double>(expect.nodes));
  }
  if (release.projection_dim != expect.dim || release.data.cols() != expect.dim) {
    return mismatch("release has m =",
                    static_cast<double>(release.projection_dim),
                    static_cast<double>(expect.dim));
  }
  if (release.params.epsilon != expect.epsilon) {
    return mismatch("release has epsilon", release.params.epsilon,
                    expect.epsilon);
  }
  if (release.params.delta != expect.delta) {
    return mismatch("release has delta", release.params.delta, expect.delta);
  }
  for (std::size_t r = 0; r < release.data.rows(); ++r) {
    for (const double v : release.data.row(r)) {
      if (!std::isfinite(v)) {
        return "release row " + std::to_string(r) + " has a non-finite value";
      }
    }
  }
  return "";
}

std::string check_identical(const std::string& path,
                            const std::string& reference) {
  std::ifstream a(path, std::ios::binary);
  std::ifstream b(reference, std::ios::binary);
  if (!a || !b) return "cannot open " + (a ? reference : path);
  constexpr std::size_t kChunk = 1 << 20;
  std::vector<char> buf_a(kChunk);
  std::vector<char> buf_b(kChunk);
  std::uint64_t offset = 0;
  while (true) {
    a.read(buf_a.data(), kChunk);
    b.read(buf_b.data(), kChunk);
    const std::streamsize got_a = a.gcount();
    const std::streamsize got_b = b.gcount();
    const auto common = static_cast<std::size_t>(std::min(got_a, got_b));
    const auto diff = std::mismatch(buf_a.begin(), buf_a.begin() + common,
                                    buf_b.begin());
    if (diff.first != buf_a.begin() + common) {
      return "release differs from " + reference + " at byte " +
             std::to_string(offset + static_cast<std::uint64_t>(
                                         diff.first - buf_a.begin()));
    }
    if (got_a != got_b) {
      return "release and " + reference + " differ in length";
    }
    if (got_a == 0) return "";
    offset += common;
  }
}

std::string check_no_checkpoint(const std::string& release_path) {
  return std::filesystem::exists(release_path + ".ckpt")
             ? "checkpoint " + release_path + ".ckpt left behind"
             : "";
}

std::string check_assignments(const std::vector<std::uint32_t>& got,
                              const std::vector<std::uint32_t>& reference,
                              const std::vector<std::uint32_t>& planted) {
  if (got != reference) return "cluster assignments do not repeat";
  const double nmi = cluster::normalized_mutual_information(got, planted);
  if (!(nmi >= kNmiFloor)) return mismatch("NMI", nmi, kNmiFloor);
  return "";
}

double top_overlap(const std::vector<std::size_t>& a,
                   const std::vector<std::size_t>& b) {
  std::vector<std::size_t> sa = a;
  std::vector<std::size_t> sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::vector<std::size_t> common;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(common));
  return sb.empty() ? 0.0
                    : static_cast<double>(common.size()) /
                          static_cast<double>(sb.size());
}

std::string check_top(const std::vector<std::size_t>& got,
                      const std::vector<std::size_t>& reference,
                      const std::vector<std::size_t>& true_top) {
  if (got != reference) return "top order does not repeat";
  const double overlap = top_overlap(got, true_top);
  if (!(overlap >= kOverlapFloor)) {
    return mismatch("top overlap", overlap, kOverlapFloor);
  }
  return "";
}

std::vector<std::string> self_test(const std::string& dir,
                                   const ReleaseExpectation& privacy) {
  std::vector<std::string> problems;
  const auto expect_pass = [&](const std::string& what,
                               const std::string& verdict) {
    if (!verdict.empty()) problems.push_back(what + ": " + verdict);
  };
  const auto expect_fail = [&](const std::string& what,
                               const std::string& verdict) {
    if (verdict.empty()) problems.push_back(what + ": check did not fire");
  };
  const auto path = [&](const std::string& name) { return dir + "/" + name; };

  // Toy input and its in-memory and sharded releases.
  random::Rng rng(1);
  const graph::Graph toy = graph::barabasi_albert(300, 3, rng);
  graph::write_edge_list_file(toy, path("toy.txt"));
  core::RandomProjectionPublisher::Options options;
  options.projection_dim = 16;
  options.params = {privacy.epsilon, privacy.delta};
  const graph::Graph read = graph::read_edge_list_file(path("toy.txt"));
  core::save_published_file(
      core::RandomProjectionPublisher(options).publish(read), path("toy.bin"));
  core::ShardedPublishOptions sharded;
  sharded.publish = options;
  sharded.shard_rows = 100;
  (void)core::publish_sharded(graph::EdgeListShardReader(path("toy.txt")),
                              sharded, path("toy_sharded.bin"));
  const ReleaseExpectation expect{read.num_nodes(), 16, privacy.epsilon,
                                  privacy.delta};

  expect_pass("release", check_release(path("toy.bin"), expect));
  expect_pass("sharded identity",
              check_identical(path("toy_sharded.bin"), path("toy.bin")));
  expect_pass("checkpoint", check_no_checkpoint(path("toy_sharded.bin")));

  // Release checks on corrupted copies.
  const auto corrupted = [&](const std::string& name) {
    std::filesystem::copy_file(
        path("toy.bin"), path(name),
        std::filesystem::copy_options::overwrite_existing);
    return path(name);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string nan_path = corrupted("nan.bin");
  overwrite_tail(nan_path,
                 std::string(reinterpret_cast<const char*>(&nan), sizeof nan));
  expect_fail("release, NaN in payload", check_release(nan_path, expect));

  const std::string short_path = corrupted("short.bin");
  std::filesystem::resize_file(short_path, std::filesystem::file_size(short_path) - 8);
  expect_fail("release, truncated payload", check_release(short_path, expect));

  core::RandomProjectionPublisher::Options narrow = options;
  narrow.projection_dim = 8;
  core::save_published_file(
      core::RandomProjectionPublisher(narrow).publish(read), path("narrow.bin"));
  expect_fail("release, wrong header", check_release(path("narrow.bin"), expect));

  const std::string flipped_path = corrupted("flipped.bin");
  overwrite_tail(flipped_path, "\x5a");
  expect_fail("identity, one byte flipped",
              check_identical(flipped_path, path("toy.bin")));
  std::filesystem::resize_file(flipped_path,
                               std::filesystem::file_size(flipped_path) - 1);
  expect_fail("identity, one byte short",
              check_identical(flipped_path, path("toy.bin")));

  std::ofstream(path("toy_sharded.bin.ckpt")) << "stale\n";
  expect_fail("checkpoint, left behind",
              check_no_checkpoint(path("toy_sharded.bin")));

  // Analyst checks.
  std::vector<std::uint32_t> planted(400);
  for (std::size_t i = 0; i < planted.size(); ++i) {
    planted[i] = static_cast<std::uint32_t>(i % 4);
  }
  expect_pass("assignments", check_assignments(planted, planted, planted));
  std::vector<std::uint32_t> swapped = planted;
  std::swap(swapped[0], swapped[1]);
  expect_fail("assignments, not repeated",
              check_assignments(swapped, planted, planted));
  const std::vector<std::uint32_t> one_cluster(planted.size(), 0);
  expect_fail("assignments, below NMI floor",
              check_assignments(one_cluster, one_cluster, planted));

  std::vector<std::size_t> top(10);
  std::vector<std::size_t> elsewhere(10);
  for (std::size_t i = 0; i < top.size(); ++i) {
    top[i] = i;
    elsewhere[i] = 100 + i;
  }
  expect_pass("top", check_top(top, top, top));
  const std::vector<std::size_t> reversed(top.rbegin(), top.rend());
  expect_fail("top, not repeated", check_top(reversed, top, top));
  expect_fail("top, below overlap floor",
              check_top(elsewhere, elsewhere, top));
  return problems;
}

}  // namespace sgp::perfbench
