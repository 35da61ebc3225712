#include "core/serialization.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "graph/generators.hpp"
#include "util/errors.hpp"

namespace sgp::core {
namespace {

PublishedGraph sample_release(ProjectionKind kind = ProjectionKind::kGaussian) {
  random::Rng rng(1);
  const auto g = graph::erdos_renyi(60, 0.2, rng);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 20;
  opt.params = {1.5, 1e-6};
  opt.projection = kind;
  opt.seed = 9;
  return RandomProjectionPublisher(opt).publish(g);
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  const auto original = sample_release();
  std::stringstream buffer;
  save_published(original, buffer);
  const auto loaded = load_published(buffer);
  EXPECT_EQ(loaded.num_nodes, original.num_nodes);
  EXPECT_EQ(loaded.projection_dim, original.projection_dim);
  EXPECT_DOUBLE_EQ(loaded.params.epsilon, original.params.epsilon);
  EXPECT_DOUBLE_EQ(loaded.params.delta, original.params.delta);
  EXPECT_DOUBLE_EQ(loaded.calibration.sigma, original.calibration.sigma);
  EXPECT_DOUBLE_EQ(loaded.calibration.sensitivity,
                   original.calibration.sensitivity);
  EXPECT_EQ(loaded.projection, original.projection);
  EXPECT_EQ(loaded.data, original.data);  // bit-exact payload
}

TEST(SerializationTest, AchlioptasKindRoundTrips) {
  const auto original = sample_release(ProjectionKind::kAchlioptas);
  std::stringstream buffer;
  save_published(original, buffer);
  EXPECT_EQ(load_published(buffer).projection, ProjectionKind::kAchlioptas);
}

TEST(SerializationTest, FileRoundTrip) {
  const auto original = sample_release();
  const std::string path = testing::TempDir() + "/sgp_release_test.bin";
  save_published_file(original, path);
  const auto loaded = load_published_file(path);
  EXPECT_EQ(loaded.data, original.data);
  std::remove(path.c_str());
}

TEST(SerializationTest, BadMagicThrows) {
  std::stringstream buffer("not-a-release\n");
  EXPECT_THROW(load_published(buffer), std::runtime_error);
}

TEST(SerializationTest, TruncatedHeaderThrows) {
  std::stringstream buffer("sgp-published-graph v2\nnodes 10 dim 5\n");
  EXPECT_THROW(load_published(buffer), std::runtime_error);
}

TEST(SerializationTest, TruncatedPayloadThrows) {
  const auto original = sample_release();
  std::stringstream buffer;
  save_published(original, buffer);
  std::string content = buffer.str();
  content.resize(content.size() - 64);  // chop part of the payload
  std::stringstream chopped(content);
  EXPECT_THROW(load_published(chopped), std::runtime_error);
}

TEST(SerializationTest, UnknownProjectionKindThrows) {
  std::stringstream buffer(
      "sgp-published-graph v2\n"
      "nodes 1 dim 1\n"
      "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
      "projection quantum\n"
      "data\n");
  EXPECT_THROW(load_published(buffer), std::runtime_error);
}

TEST(SerializationTest, V2HeaderRecordsProjectionRng) {
  const auto original = sample_release();
  std::stringstream buffer;
  save_published(original, buffer);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("sgp-published-graph v2\n"), std::string::npos);
  EXPECT_NE(text.find("projection_rng counter-v1\n"), std::string::npos);
  std::stringstream reread(text);
  EXPECT_EQ(load_published(reread).projection_rng,
            ProjectionRngKind::kCounterV1);
}

// Every release since the counter generator is v2. A v1 file drew its P
// from a generator this build no longer has, so it is corrupt input.
TEST(SerializationTest, V1FileIsAParseError) {
  std::string payload(2 * 8, '\0');  // 1 node × 2 dims of zero doubles
  std::stringstream buffer(
      "sgp-published-graph v1\n"
      "nodes 1 dim 2\n"
      "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
      "projection gaussian\n"
      "data\n" +
      payload);
  EXPECT_THROW(load_published(buffer), util::ParseError);
}

TEST(SerializationTest, UnknownProjectionRngThrows) {
  std::stringstream buffer(
      "sgp-published-graph v2\n"
      "nodes 1 dim 1\n"
      "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
      "projection gaussian\n"
      "projection_rng quantum\n"
      "data\n");
  EXPECT_THROW(load_published(buffer), std::runtime_error);
  // The sequential generator's tag went with the generator.
  std::stringstream sequential(
      "sgp-published-graph v2\n"
      "nodes 1 dim 1\n"
      "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
      "projection gaussian\n"
      "projection_rng sequential-v0\n"
      "data\n" +
      std::string(8, '\0'));
  EXPECT_THROW(load_published(sequential), util::ParseError);
}

TEST(SerializationTest, V2MissingProjectionRngLineThrows) {
  std::stringstream buffer(
      "sgp-published-graph v2\n"
      "nodes 1 dim 1\n"
      "epsilon 1 delta 1e-6 sigma 2 sensitivity 1\n"
      "projection gaussian\n"
      "data\n");
  EXPECT_THROW(load_published(buffer), std::runtime_error);
}

TEST(StreamingPublishTest, ByteIdenticalToInMemoryPublish) {
  random::Rng rng(3);
  const auto g = graph::erdos_renyi(120, 0.1, rng);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 30;
  opt.params = {2.0, 1e-6};
  opt.seed = 21;

  std::stringstream reference;
  save_published(RandomProjectionPublisher(opt).publish(g), reference);
  std::stringstream streamed;
  publish_to_stream(g, opt, streamed);
  EXPECT_EQ(streamed.str(), reference.str());
}

TEST(StreamingPublishTest, AchlioptasAlsoIdentical) {
  random::Rng rng(4);
  const auto g = graph::erdos_renyi(80, 0.15, rng);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 16;
  opt.projection = ProjectionKind::kAchlioptas;
  opt.seed = 33;

  std::stringstream reference;
  save_published(RandomProjectionPublisher(opt).publish(g), reference);
  std::stringstream streamed;
  publish_to_stream(g, opt, streamed);
  EXPECT_EQ(streamed.str(), reference.str());
}

TEST(StreamingPublishTest, LoadableRoundTrip) {
  random::Rng rng(5);
  const auto g = graph::erdos_renyi(60, 0.2, rng);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 12;
  std::stringstream streamed;
  publish_to_stream(g, opt, streamed);
  const auto loaded = load_published(streamed);
  EXPECT_EQ(loaded.num_nodes, 60u);
  EXPECT_EQ(loaded.projection_dim, 12u);
}

TEST(StreamingPublishTest, InvalidDimThrows) {
  const auto g = graph::Graph::from_edges(5, {});
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 10;
  std::stringstream out;
  EXPECT_THROW(publish_to_stream(g, opt, out), std::invalid_argument);
}

TEST(SerializationTest, MissingFileThrows) {
  EXPECT_THROW(load_published_file("/nonexistent/release.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace sgp::core
