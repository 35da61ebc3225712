#include "core/serialization.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/theory.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "random/kernel_variant.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {
namespace {

constexpr char kMagic[] = "sgp-published-graph v2";

// Upper bound on the row block publish_to_stream computes at a time.
constexpr std::size_t kStreamBlockBytes = std::size_t{4} << 20;

}  // namespace

void write_published_header(std::ostream& out, std::size_t num_nodes,
                            std::size_t projection_dim,
                            const dp::PrivacyParams& params,
                            const NoiseCalibration& calibration,
                            ProjectionKind projection,
                            ProjectionRngKind projection_rng) {
  out.precision(17);  // max_digits10: header doubles must round-trip exactly
  out << kMagic << '\n';
  out << "nodes " << num_nodes << " dim " << projection_dim << '\n';
  out << "epsilon " << params.epsilon << " delta " << params.delta << " sigma "
      << calibration.sigma << " sensitivity " << calibration.sensitivity
      << '\n';
  out << "projection " << to_string(projection) << '\n';
  out << "projection_rng " << to_string(projection_rng) << '\n';
  out << "data\n";
}

void write_published_doubles(std::ostream& out,
                             std::span<const double> values) {
  // Assumes a little-endian IEEE-754 host (x86-64 / aarch64) — asserted at
  // compile time below so a port to an exotic platform fails loudly.
  static_assert(sizeof(double) == 8);
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(double)));
}

void save_published(const PublishedGraph& published, std::ostream& out) {
  util::fault_point(util::fault_points::kIoWrite);
  obs::ScopedTimer timer(obs::names::kIoSaveRelease);
  timer.attr("bytes", published.published_bytes());
  write_published_header(out, published.num_nodes, published.projection_dim,
                         published.params, published.calibration,
                         published.projection, published.projection_rng);
  write_published_doubles(out, published.data.data());
  if (!out.good()) {
    throw util::IoError("save_published: stream write failed");
  }
}

void save_published_file(const PublishedGraph& published,
                         const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    throw util::IoError("save_published: cannot open " + path);
  }
  save_published(published, out);
}

PublishedGraph load_published(std::istream& in) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoLoadRelease);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw util::ParseError("load_published: bad magic line");
  }

  PublishedGraph pub;
  std::string token;
  if (!std::getline(in, line)) {
    throw util::ParseError("load_published: truncated header");
  }
  {
    std::istringstream fields(line);
    std::size_t n = 0, m = 0;
    if (!(fields >> token >> n >> token >> m) || n == 0 || m == 0) {
      throw util::ParseError("load_published: bad dimensions line");
    }
    // The publisher projects onto at most n dimensions.
    if (m > n) {
      throw util::ParseError("load_published: dim " + std::to_string(m) +
                             " exceeds nodes " + std::to_string(n));
    }
    pub.num_nodes = n;
    pub.projection_dim = m;
  }
  if (!std::getline(in, line)) {
    throw util::ParseError("load_published: truncated header");
  }
  {
    std::istringstream fields(line);
    if (!(fields >> token >> pub.params.epsilon >> token >> pub.params.delta >>
          token >> pub.calibration.sigma >> token >>
          pub.calibration.sensitivity)) {
      throw util::ParseError("load_published: bad privacy line");
    }
    // Values no publisher writes: an analyst must not scale by them.
    const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
    if (!positive(pub.params.epsilon)) {
      throw util::ParseError("load_published: epsilon must be positive");
    }
    if (!(pub.params.delta > 0.0 && pub.params.delta < 1.0)) {
      throw util::ParseError("load_published: delta must lie in (0, 1)");
    }
    if (!positive(pub.calibration.sigma) ||
        !positive(pub.calibration.sensitivity)) {
      throw util::ParseError(
          "load_published: sigma and sensitivity must be positive");
    }
  }
  if (!std::getline(in, line)) {
    throw util::ParseError("load_published: truncated header");
  }
  {
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> token >> kind) || token != "projection") {
      throw util::ParseError("load_published: bad projection line");
    }
    try {
      pub.projection = parse_projection_kind(kind);
    } catch (const util::PreconditionError& e) {
      throw util::ParseError(std::string("load_published: ") + e.what());
    }
  }
  if (!std::getline(in, line)) {
    throw util::ParseError("load_published: truncated header");
  }
  {
    std::istringstream fields(line);
    std::string tag;
    if (!(fields >> token >> tag) || token != "projection_rng") {
      throw util::ParseError("load_published: bad projection_rng line");
    }
    pub.projection_rng = parse_projection_rng(tag);
  }
  if (!std::getline(in, line) || line != "data") {
    throw util::ParseError("load_published: missing data marker");
  }

  pub.data = linalg::DenseMatrix(pub.num_nodes, pub.projection_dim);
  const std::span<double> values = pub.data.data();
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (in.gcount() !=
      static_cast<std::streamsize>(values.size() * sizeof(double))) {
    throw util::ParseError("load_published: truncated payload");
  }
  return pub;
}

PublishedGraph load_published_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw util::IoError("load_published: cannot open " + path);
  }
  return load_published(in);
}

void publish_to_stream(const graph::Graph& g,
                       const RandomProjectionPublisher::Options& options,
                       std::ostream& out) {
  util::fault_point(util::fault_points::kIoWrite);
  obs::ScopedTimer timer(obs::names::kPublishStream);
  timer.attr("n", g.num_nodes()).attr("m", options.projection_dim);
  const std::size_t n = g.num_nodes();
  const std::size_t m = options.projection_dim;
  util::require(n >= 1, "publish_to_stream: graph must have nodes");
  util::require(m >= 1 && m <= n,
                "publish_to_stream: projection_dim must be in [1, n]");
  options.params.validate();

  // Same once-per-publish kernel resolution as the in-memory publisher, so
  // the two paths pick the same mapping — and therefore the same header tag
  // and payload bytes — for the same options and environment. Every block
  // below runs on the resolved variant.
  RandomProjectionPublisher::Options resolved = options;
  resolved.kernel = random::resolve_normal_kernel(options.kernel);

  const NoiseCalibration calibration = options.calibration();
  write_published_header(out, n, m, options.params, calibration,
                         options.projection,
                         projection_rng_for(options.projection,
                                            resolved.kernel));

  // Stream bounded row blocks: each is transposed and published through the
  // same publish_rows as every other mode, so the payload is byte-identical
  // to save_published(publish(g)) while nothing n×m is ever held.
  const std::size_t block_rows =
      std::max<std::size_t>(1, kStreamBlockBytes / (m * sizeof(double)));
  std::vector<double> block;
  for (std::size_t r0 = 0; r0 < n; r0 += block_rows) {
    const std::size_t r1 = std::min(n, r0 + block_rows);
    block.assign((r1 - r0) * m, 0.0);
    const RowsBySource index = transpose_rows(
        r0, r1, [&g](std::size_t i) { return g.neighbors(i); });
    publish_rows(index.view(), r0, r1, resolved, calibration,
                 util::global_pool(), block);
    write_published_doubles(out, block);
  }
  if (!out.good()) {
    throw util::IoError("publish_to_stream: stream write failed");
  }
}

}  // namespace sgp::core
