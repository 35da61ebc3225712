// Serialization of the published artifact.
//
// Publishing means shipping a file: the release is written as a small text
// header (human-auditable metadata — everything in it is data-independent)
// followed by the raw little-endian doubles of Ỹ.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "core/publisher.hpp"

namespace sgp::core {

/// Writes the v2 text header (magic through the "data" marker, inclusive)
/// exactly as save_published/publish_to_stream emit it. The single encoder
/// for the header bytes: save_published, publish_to_stream and the sharded
/// publisher (core/sharded_publish.hpp) all call this, so their outputs can
/// only differ in the payload. Sets the stream's precision to 17
/// (max_digits10) as a side effect.
void write_published_header(std::ostream& out, std::size_t num_nodes,
                            std::size_t projection_dim,
                            const dp::PrivacyParams& params,
                            const NoiseCalibration& calibration,
                            ProjectionKind projection,
                            ProjectionRngKind projection_rng);

/// Writes `values` as raw little-endian IEEE-754 doubles — the payload
/// encoding of the release format. Exposed so every publisher path shares
/// one encoder.
void write_published_doubles(std::ostream& out, std::span<const double> values);

/// Writes the release (header + matrix) to a stream.
/// Format, line-oriented header then binary payload:
///   sgp-published-graph v2
///   nodes <n> dim <m>
///   epsilon <e> delta <d> sigma <s> sensitivity <c>
///   projection <gaussian|achlioptas>
///   projection_rng <counter-v1|counter-v1-simd>
///   data
///   <n*m little-endian IEEE-754 doubles, row-major>
void save_published(const PublishedGraph& published, std::ostream& out);

/// Saves to a file path. Throws std::runtime_error if unwritable.
void save_published_file(const PublishedGraph& published,
                         const std::string& path);

/// Reads a release previously written by save_published.
/// Throws std::runtime_error on format or IO errors.
PublishedGraph load_published(std::istream& in);

/// Loads from a file path. Throws std::runtime_error if unreadable.
PublishedGraph load_published_file(const std::string& path);

/// Memory-bounded publish: computes and writes the release in row blocks of
/// at most 4 MiB instead of materializing Ỹ. Each block is transposed by
/// source and computed by publish_rows on the global pool, so working memory
/// is the block plus its O(n + |E_block|) index. Produces **byte-identical**
/// output to `save_published(RandomProjectionPublisher(options).publish(g),
/// out)` for the same options, so consumers cannot tell the difference.
void publish_to_stream(const graph::Graph& g,
                       const RandomProjectionPublisher::Options& options,
                       std::ostream& out);

}  // namespace sgp::core
