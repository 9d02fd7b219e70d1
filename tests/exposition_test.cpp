// Exposition: the Prometheus text rendering (golden file), its
// consistency with util::Histogram's bucket semantics, name mangling,
// and the /status JSON document round-tripping through util::json.
#include "trace/exposition.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/metric_sampler.h"
#include "util/metrics_registry.h"

namespace rbcast::trace {
namespace {

TEST(PrometheusName, ManglesDotsAndPrefixes) {
  EXPECT_EQ(prometheus_name("transport.datagrams_sent"),
            "rbcast_transport_datagrams_sent");
  EXPECT_EQ(prometheus_name("host.attach-attempts"),
            "rbcast_host_attach_attempts");
  // Already prefixed: no double rbcast_.
  EXPECT_EQ(prometheus_name("rbcast_custom"), "rbcast_custom");
}

TEST(Prometheus, GoldenTextFormat) {
  util::MetricsRegistry registry;
  registry.counter("host.deliveries", "host=\"0\"", "First receipts").inc(3);
  registry.counter("host.deliveries", "host=\"1\"", "First receipts").inc(4);
  registry.register_gauge_fn("tree.depth", "", "Longest parent chain",
                             [] { return 2.0; });
  util::Histogram& lat =
      registry.histogram("delivery.latency_seconds", {0.01, 0.5}, "",
                         "Delivery latency");
  lat.add(0.002);
  lat.add(0.1);
  lat.add(9.0);

  std::ostringstream os;
  write_prometheus(os, registry.snapshot());
  const std::string expected =
      "# HELP rbcast_delivery_latency_seconds Delivery latency\n"
      "# TYPE rbcast_delivery_latency_seconds histogram\n"
      "rbcast_delivery_latency_seconds_bucket{le=\"0.01\"} 1\n"
      "rbcast_delivery_latency_seconds_bucket{le=\"0.5\"} 2\n"
      "rbcast_delivery_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "rbcast_delivery_latency_seconds_sum 9.102\n"
      "rbcast_delivery_latency_seconds_count 3\n"
      "# HELP rbcast_host_deliveries First receipts\n"
      "# TYPE rbcast_host_deliveries counter\n"
      "rbcast_host_deliveries{host=\"0\"} 3\n"
      "rbcast_host_deliveries{host=\"1\"} 4\n"
      "# HELP rbcast_tree_depth Longest parent chain\n"
      "# TYPE rbcast_tree_depth gauge\n"
      "rbcast_tree_depth 2\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Prometheus, HelpFallsBackToTheDottedName) {
  util::MetricsRegistry registry;
  registry.counter("a.b");
  std::ostringstream os;
  write_prometheus(os, registry.snapshot());
  EXPECT_NE(os.str().find("# HELP rbcast_a_b a.b\n"), std::string::npos);
}

// The bucket lines must agree with util::Histogram's own cumulative
// counts for the shared sampler bounds — one histogram semantics
// everywhere (DESIGN.md §14).
TEST(Prometheus, BucketsMatchUtilHistogramOnSamplerBounds) {
  const std::vector<double> bounds = MetricSampler::latency_bounds();
  util::Histogram reference(bounds);
  util::MetricsRegistry registry;
  util::Histogram& exposed = registry.histogram("lat", bounds);
  const std::vector<double> samples = {0.0005, 0.003, 0.02, 0.02,
                                       0.7,    30.0,  120.0};
  for (double v : samples) {
    reference.add(v);
    exposed.add(v);
  }
  std::ostringstream os;
  write_prometheus(os, registry.snapshot());
  const std::string text = os.str();
  const auto cumulative = reference.cumulative_counts();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    std::ostringstream bound_text;
    bound_text.precision(12);
    bound_text << bounds[i];
    const std::string line = "rbcast_lat_bucket{le=\"" + bound_text.str() +
                             "\"} " + std::to_string(cumulative[i]) + "\n";
    EXPECT_NE(text.find(line), std::string::npos) << line << "\nin\n" << text;
  }
  EXPECT_NE(text.find("rbcast_lat_bucket{le=\"+Inf\"} " +
                      std::to_string(reference.count()) + "\n"),
            std::string::npos);
}

StatusDoc sample_doc() {
  StatusDoc doc;
  doc.now_s = 3.25;
  doc.ready = true;
  doc.source = 0;
  doc.messages_expected = 20;
  doc.messages_sent = 20;
  HostStatus h;
  h.id = 4;
  h.source = false;
  h.parent = 0;
  h.orphan = false;
  h.leader = false;
  h.info_count = 20;
  h.max_seq = 20;
  h.deliveries = 20;
  h.decode_errors = 1;
  h.auth_rejects = 2;
  h.cluster = {0, 3, 4};
  doc.hosts.push_back(h);
  util::MetricSnapshot counter;
  counter.name = "transport.datagrams_sent";
  counter.kind = util::MetricSnapshot::Kind::kCounter;
  counter.counter = 123;
  doc.metrics.push_back(counter);
  util::MetricSnapshot gauge;
  gauge.name = "tree.depth";
  gauge.kind = util::MetricSnapshot::Kind::kGauge;
  gauge.gauge = 2.5;
  doc.metrics.push_back(gauge);
  util::MetricSnapshot histogram;
  histogram.name = "delivery.latency_seconds";
  histogram.kind = util::MetricSnapshot::Kind::kHistogram;
  histogram.bounds = {0.01, 0.5};
  histogram.cumulative = {1, 2};
  histogram.count = 3;
  histogram.sum = 9.102;
  doc.metrics.push_back(histogram);
  return doc;
}

TEST(StatusJson, RoundTripsThroughUtilJson) {
  const StatusDoc doc = sample_doc();
  const std::string text = status_json(doc);
  const StatusDoc parsed = parse_status_json(text);

  EXPECT_DOUBLE_EQ(parsed.now_s, doc.now_s);
  EXPECT_EQ(parsed.ready, doc.ready);
  EXPECT_EQ(parsed.source, doc.source);
  EXPECT_EQ(parsed.messages_expected, doc.messages_expected);
  EXPECT_EQ(parsed.messages_sent, doc.messages_sent);
  ASSERT_EQ(parsed.hosts.size(), 1u);
  EXPECT_EQ(parsed.hosts[0].id, 4);
  EXPECT_EQ(parsed.hosts[0].parent, 0);
  EXPECT_EQ(parsed.hosts[0].info_count, 20u);
  EXPECT_EQ(parsed.hosts[0].max_seq, 20);
  EXPECT_EQ(parsed.hosts[0].deliveries, 20u);
  EXPECT_EQ(parsed.hosts[0].decode_errors, 1u);
  EXPECT_EQ(parsed.hosts[0].auth_rejects, 2u);
  EXPECT_EQ(parsed.hosts[0].cluster, (std::vector<std::int64_t>{0, 3, 4}));
  ASSERT_EQ(parsed.metrics.size(), 3u);
  EXPECT_EQ(parsed.metrics[0].counter, 123u);
  EXPECT_DOUBLE_EQ(parsed.metrics[1].gauge, 2.5);
  EXPECT_EQ(parsed.metrics[2].kind, util::MetricSnapshot::Kind::kHistogram);
  EXPECT_EQ(parsed.metrics[2].cumulative,
            (std::vector<std::uint64_t>{1, 2}));
  EXPECT_DOUBLE_EQ(parsed.metrics[2].sum, 9.102);

  // Serialization is byte-stable: render(parse(render(x))) == render(x).
  EXPECT_EQ(status_json(parsed), text);
}

TEST(StatusJson, ControlCharactersAndLargeCountersRoundTripExactly) {
  StatusDoc doc = sample_doc();
  // A label with a control character is written as \u0001, and a counter
  // above 2^53 has no exact double: both must come back unchanged.
  doc.metrics[0].labels = "peer=\"a\x01b\"";
  doc.metrics[0].counter = (std::uint64_t{1} << 53) + 1;
  doc.hosts[0].deliveries = (std::uint64_t{1} << 53) + 1;
  const std::string text = status_json(doc);
  const StatusDoc parsed = parse_status_json(text);
  ASSERT_EQ(parsed.metrics.size(), doc.metrics.size());
  EXPECT_EQ(parsed.metrics[0].labels, doc.metrics[0].labels);
  EXPECT_EQ(parsed.metrics[0].counter, doc.metrics[0].counter);
  ASSERT_EQ(parsed.hosts.size(), 1u);
  EXPECT_EQ(parsed.hosts[0].deliveries, doc.hosts[0].deliveries);
  EXPECT_EQ(status_json(parsed), text);
}

TEST(StatusJson, ParserDefaultsAuthRejectsForPreAuthNodes) {
  // A /status document from a node built before the auth field existed
  // must parse cleanly with auth_rejects == 0.
  const StatusDoc parsed = parse_status_json(
      "{\"hosts\":[{\"id\":1,\"deliveries\":3,\"decode_errors\":0}]}");
  ASSERT_EQ(parsed.hosts.size(), 1u);
  EXPECT_EQ(parsed.hosts[0].auth_rejects, 0u);
}

TEST(StatusJson, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(parse_status_json("not json"), std::invalid_argument);
  EXPECT_THROW(parse_status_json("[1,2,3]"), std::invalid_argument);
  EXPECT_THROW(parse_status_json("{\"hosts\":7}"), std::invalid_argument);
  EXPECT_THROW(parse_status_json("{\"metrics\":[{\"name\":\"x\","
                                 "\"kind\":\"nope\"}]}"),
               std::invalid_argument);
  // Histogram arrays must be parallel.
  EXPECT_THROW(parse_status_json(
                   "{\"metrics\":[{\"name\":\"h\",\"kind\":\"histogram\","
                   "\"count\":1,\"sum\":1,\"bounds\":[1],"
                   "\"cumulative\":[1,2]}]}"),
               std::invalid_argument);
  // Negative counts are nonsense from an untrusted endpoint.
  EXPECT_THROW(parse_status_json("{\"hosts\":[{\"id\":1,"
                                 "\"deliveries\":-3}]}"),
               std::invalid_argument);
}

}  // namespace
}  // namespace rbcast::trace
