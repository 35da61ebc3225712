// Output checks. Each returns "" when the output is correct and a one-line
// description of what is wrong otherwise; the driver runs them outside the
// timed region and counts any non-empty answer as a failed op.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sgp::perfbench {

/// What every release of a workload must declare in its header.
struct ReleaseExpectation {
  std::size_t nodes = 0;
  std::size_t dim = 0;
  double epsilon = 0.0;
  double delta = 0.0;
};

/// The release at `path` reloads through load_published_file with the
/// expected n, m, ε and δ and a finite payload.
[[nodiscard]] std::string check_release(const std::string& path,
                                        const ReleaseExpectation& expect);

/// The two files hold the same bytes.
[[nodiscard]] std::string check_identical(const std::string& path,
                                          const std::string& reference);

/// No checkpoint log is left beside a finished sharded release.
[[nodiscard]] std::string check_no_checkpoint(const std::string& release_path);

/// Utility floors of the analyst checks. They sit well below the values
/// measured at the analyst's sizes over 36 seeds (NMI 0.77 to 0.79, top-100
/// overlap 0.12 to 0.25) and well above chance (about 0 and 0.005).
inline constexpr double kNmiFloor = 0.5;
inline constexpr double kOverlapFloor = 0.05;

/// Cluster assignments repeat the reference exactly and score at least
/// kNmiFloor NMI against the planted labels.
[[nodiscard]] std::string check_assignments(
    const std::vector<std::uint32_t>& got,
    const std::vector<std::uint32_t>& reference,
    const std::vector<std::uint32_t>& planted);

/// A top-k order repeats the reference exactly and shares at least
/// kOverlapFloor·k nodes with the true top-k set.
[[nodiscard]] std::string check_top(const std::vector<std::size_t>& got,
                                    const std::vector<std::size_t>& reference,
                                    const std::vector<std::size_t>& true_top);

/// |a ∩ b| / |b| for two top-k lists.
[[nodiscard]] double top_overlap(const std::vector<std::size_t>& a,
                                 const std::vector<std::size_t>& b);

/// Toy-scale self-test: builds small correct outputs in `dir` (releases
/// under `privacy`'s ε and δ), confirms every check accepts them, then
/// corrupts each output and confirms its check rejects it. Returns one line
/// per check that misbehaved.
[[nodiscard]] std::vector<std::string> self_test(
    const std::string& dir, const ReleaseExpectation& privacy);

}  // namespace sgp::perfbench
