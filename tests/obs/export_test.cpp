// Exporter golden tests: the single-process report (obs/report.hpp) and the
// Prometheus text. This suite is its own test binary on purpose: the
// metrics registry is process-global and append-only, so exact-output tests
// are only deterministic when every test in the process registers the same
// fixed set of metrics (alpha.count / beta.level / gamma.seconds).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/aggregate.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sgp::obs::set_metrics_enabled(true);
    sgp::obs::set_trace_enabled(true);
    sgp::obs::reset_all_metrics();
    sgp::obs::clear_spans();
    sgp::obs::counter("alpha.count").add(3);
    sgp::obs::gauge("beta.level").set(2.5);
    sgp::obs::histogram("gamma.seconds").record(0.5);
  }
  void TearDown() override {
    sgp::obs::reset_all_metrics();
    sgp::obs::clear_spans();
    sgp::obs::set_metrics_enabled(false);
    sgp::obs::set_trace_enabled(false);
  }
};

// The metrics block of a single-process report, byte for byte: the report
// is the registry's one JSON view.
TEST_F(ExportTest, JsonGolden) {
  std::ostringstream out;
  sgp::obs::Report("export-test").write(out);
  // The bucket bound for a 0.5 s sample, rendered exactly as the exporter
  // renders numbers (bounds are powers of two times 1e-6, not integers).
  const std::string le = sgp::util::json_number(
      sgp::obs::Histogram::upper_bound(sgp::obs::Histogram::bucket_for(0.5)));
  const std::string pid = std::to_string(sgp::obs::sidecar_pid());
  const std::string expected = std::string("\"metrics\": {\n") +
      "\"counters\": {\"alpha.count\": 3},\n"
      "\"gauges\": {\"beta.level\": {\"value\": 2.5, \"processes\": {\"" +
      pid + "\": 2.5}}},\n"
      "\"histograms\": {\"gamma.seconds\": {\"count\": 1, \"sum\": 0.5, "
      "\"buckets\": [{\"le\": " + le + ", \"count\": 1}]}}\n"
      "},\n";
  EXPECT_NE(out.str().find(expected), std::string::npos) << out.str();
}

TEST_F(ExportTest, JsonOutputParses) {
  std::ostringstream out;
  sgp::obs::Report("export-test").write(out);
  const auto doc = sgp::util::parse_json(out.str());
  ASSERT_TRUE(doc.is_object());
  const auto* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const auto* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("alpha.count")->as_number(), 3.0);
  const auto* gauge = metrics->find("gauges")->find("beta.level");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->find("value")->as_number(), 2.5);
  const auto& readings = gauge->find("processes")->as_object();
  ASSERT_EQ(readings.size(), 1u);
  EXPECT_EQ(readings.begin()->first,
            std::to_string(sgp::obs::sidecar_pid()));
  EXPECT_DOUBLE_EQ(readings.begin()->second.as_number(), 2.5);
  const auto* hist = metrics->find("histograms")->find("gamma.seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 0.5);
  const auto& buckets = hist->find("buckets")->as_array();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(
      buckets[0].find("le")->as_number(),
      sgp::obs::Histogram::upper_bound(sgp::obs::Histogram::bucket_for(0.5)));
}

TEST_F(ExportTest, PrometheusGolden) {
  std::ostringstream out;
  sgp::obs::write_metrics_prometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE sgp_alpha_count counter\nsgp_alpha_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sgp_beta_level gauge\nsgp_beta_level 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sgp_gamma_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: 0 below the sample's bucket, 1 from it onward.
  const std::size_t b = sgp::obs::Histogram::bucket_for(0.5);
  const std::string below = sgp::util::json_number(
      sgp::obs::Histogram::upper_bound(b - 1));
  const std::string at =
      sgp::util::json_number(sgp::obs::Histogram::upper_bound(b));
  EXPECT_NE(text.find("sgp_gamma_seconds_bucket{le=\"" + below + "\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgp_gamma_seconds_bucket{le=\"" + at + "\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgp_gamma_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgp_gamma_seconds_sum 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("sgp_gamma_seconds_count 1\n"), std::string::npos);
}

TEST_F(ExportTest, ReportRoundTripValidates) {
  {
    sgp::obs::Span phase("test.export.phase");
    phase.attr("n", std::uint64_t{12});
  }
  sgp::obs::Report report("export-test");
  report.meta("epsilon", 1.5)
      .meta("dataset", "unit")
      .meta("nodes", std::uint64_t{500})
      .meta("streaming", false);

  std::ostringstream out;
  report.write(out);
  const auto doc = sgp::util::parse_json(out.str());
  EXPECT_EQ(sgp::obs::validate_report_v2_json(doc), std::nullopt);

  EXPECT_EQ(doc.find("schema")->as_string(), "sgp-obs-report v2");
  EXPECT_EQ(doc.find("id")->as_string(), "export-test");
  const std::string& trace_id = doc.find("trace_id")->as_string();
  EXPECT_EQ(trace_id.size(), 16u);
  EXPECT_EQ(trace_id.find_first_not_of("0123456789abcdef"), std::string::npos)
      << trace_id;
  const auto& processes = doc.find("processes")->as_array();
  ASSERT_EQ(processes.size(), 1u);
  EXPECT_DOUBLE_EQ(processes[0].find("pid")->as_number(),
                   static_cast<double>(sgp::obs::sidecar_pid()));
  // Only the caller's fields: nothing the writer adds.
  const auto* meta = doc.find("meta");
  EXPECT_EQ(meta->as_object().size(), 4u);
  EXPECT_DOUBLE_EQ(meta->find("epsilon")->as_number(), 1.5);
  EXPECT_EQ(meta->find("dataset")->as_string(), "unit");
  EXPECT_DOUBLE_EQ(meta->find("nodes")->as_number(), 500.0);
  EXPECT_FALSE(meta->find("streaming")->as_bool());
  const auto& phases = doc.find("phases")->as_array();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].find("name")->as_string(), "test.export.phase");
  const auto& spans = doc.find("spans")->as_array();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].find("attrs")->find("n")->as_string(), "12");
}

TEST_F(ExportTest, ValidatorRejectsMalformedReports) {
  const auto validate = [](const std::string& json) {
    return sgp::obs::validate_report_v2_json(sgp::util::parse_json(json));
  };
  const std::string head =
      R"({"schema": "sgp-obs-report v2", "id": "x", )"
      R"("trace_id": "0123456789abcdef", "meta": {}, )"
      R"("processes": [{"pid": 1, "role": "coordinator"}], )";
  const std::string metrics =
      R"("metrics": {"counters": {}, "gauges": {}, "histograms": {}})";
  const std::string tail = R"(, "events": [], "spans": []})";
  // The well-formed skeleton the malformed shapes below are cut from.
  EXPECT_EQ(validate(head + R"("phases": [], )" + metrics + tail),
            std::nullopt);

  EXPECT_NE(validate("{}"), std::nullopt);
  EXPECT_NE(validate(R"({"schema": "bogus v9", "id": "x"})"), std::nullopt);
  EXPECT_NE(validate(head + R"("phases": [], "metrics": {"counters": {}, )"
                            R"("gauges": {}})" + tail),
            std::nullopt);  // histograms missing
  EXPECT_NE(validate(head + R"("phases": [{"name": "p"}], )" + metrics + tail),
            std::nullopt);  // no seconds
  // A v1 document, well formed under the retired schema, is not a report.
  EXPECT_NE(validate(R"({"schema": "sgp-obs-report v1", "id": "x", )"
                     R"("meta": {}, "phases": [], )" +
                     metrics + R"(, "spans": []})"),
            std::nullopt);
}

// A single-process report reads no sidecar: neither a stale one named like
// this report's nor an unrelated *.jsonl in the working directory is merged
// or deleted.
TEST_F(ExportTest, SingleProcessReportLeavesSidecarsAlone) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("export_test_" + std::to_string(sgp::obs::sidecar_pid()));
  std::filesystem::create_directories(dir);
  const std::filesystem::path old_cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  const std::string stale = "report.json.obs.424242.jsonl";
  const std::string unrelated = "x.jsonl";
  for (const std::string& name : {stale, unrelated}) {
    std::ofstream(name, std::ios::binary)
        << sgp::obs::crc_frame(R"({"type": "process", "pid": 424242, )"
                               R"("role": "worker", "trace_id": "t"})")
        << "\n";
  }

  sgp::obs::Report("export-test").write_file("report.json");
  std::ifstream in("report.json", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = sgp::util::parse_json(text.str());
  EXPECT_EQ(sgp::obs::validate_report_v2_json(doc), std::nullopt);
  EXPECT_EQ(doc.find("processes")->as_array().size(), 1u);
  EXPECT_TRUE(std::filesystem::exists(stale));
  EXPECT_TRUE(std::filesystem::exists(unrelated));

  std::filesystem::current_path(old_cwd);
  std::filesystem::remove_all(dir);
}

TEST_F(ExportTest, TraceTextTreeIndentsChildren) {
  {
    sgp::obs::Span outer("outer.phase");
    sgp::obs::Span inner("inner.step");
    inner.attr("k", "v");
  }
  std::ostringstream out;
  sgp::obs::write_trace_text(out);
  const std::string text = out.str();
  const auto outer_pos = text.find("outer.phase");
  const auto inner_pos = text.find("inner.step");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
  EXPECT_NE(text.find("k=v"), std::string::npos);
}

}  // namespace
