// Trace read path: JSONL parsing round-trips what JsonlSink writes, the
// structural JSON validator accepts/rejects correctly, and the analysis
// queries (summary, timeline, lineage, convergence) answer real runs —
// including the acceptance gate that --lineage reconstructs the full
// relay + gap-fill path of one sequence number on a 4-cluster topology.
#include "trace/trace_reader.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "support/fast_config.h"
#include "topo/generators.h"
#include "trace/trace_sink.h"

namespace rbcast::trace {
namespace {

using rbcast::testing::fast_config;

harness::ScenarioOptions fast_options(std::uint64_t seed = 1) {
  harness::ScenarioOptions options;
  options.protocol = fast_config();
  options.protocol.data_bytes = 32;
  options.seed = seed;
  return options;
}

TraceRecord parse_ok(const std::string& line) {
  TraceRecord r;
  std::string error;
  EXPECT_TRUE(parse_jsonl_line(line, &r, &error)) << line << ": " << error;
  return r;
}

TEST(ParseJsonl, RoundTripsWhatJsonlSinkWrites) {
  TraceRecord original;
  original.at = 1500000;
  original.category = "net";
  original.name = "deliver";
  original.host = HostId{5};
  original.field("kind", std::string("data"))
      .field("bytes", std::int64_t{64})
      .field("ratio", 0.25)
      .field("ok", true)
      .field("text", std::string("a\"b\\c\nd"));

  std::ostringstream os;
  JsonlSink sink(os);
  sink.record(original);
  std::string line = os.str();
  line.pop_back();  // trailing newline

  const TraceRecord parsed = parse_ok(line);
  EXPECT_EQ(parsed.at, original.at);
  EXPECT_EQ(parsed.category, "net");
  EXPECT_EQ(parsed.name, "deliver");
  EXPECT_EQ(parsed.host.value, 5);
  EXPECT_EQ(field_string(parsed, "kind"), "data");
  EXPECT_EQ(field_int(parsed, "bytes"), 64);
  EXPECT_EQ(field_string(parsed, "text"), "a\"b\\c\nd");
  const FieldValue* ok = find_field(parsed, "ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(std::holds_alternative<bool>(*ok));
  const FieldValue* ratio = find_field(parsed, "ratio");
  ASSERT_NE(ratio, nullptr);
  ASSERT_TRUE(std::holds_alternative<double>(*ratio));
  EXPECT_DOUBLE_EQ(std::get<double>(*ratio), 0.25);
}

TEST(ParseJsonl, RunGlobalHostParsesAsNoHost) {
  const TraceRecord r = parse_ok(
      R"({"t":0,"cat":"metric","ev":"counters","host":-1,"delivered":3})");
  EXPECT_EQ(r.host, kNoHost);
  EXPECT_EQ(field_int(r, "delivered"), 3);
}

TEST(ParseJsonl, RejectsMalformedLines) {
  TraceRecord r;
  std::string error;
  for (const char* bad :
       {"", "not json", "[1,2]", R"({"t":1)", R"({"t":1} trailing)",
        R"({"t":1,"cat":"x","ev":"y","host":0,})",
        R"({"t":"not-a-number","cat":"x","ev":"y"})"}) {
    EXPECT_FALSE(parse_jsonl_line(bad, &r, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ReadJsonl, SkipsEmptyLinesAndNamesBadLineNumbers) {
  std::istringstream good(
      "{\"t\":1,\"cat\":\"net\",\"ev\":\"a\",\"host\":0}\n"
      "\n"
      "{\"t\":2,\"cat\":\"net\",\"ev\":\"b\",\"host\":1}\n");
  std::vector<TraceRecord> records;
  std::string error;
  ASSERT_TRUE(read_jsonl(good, &records, &error)) << error;
  EXPECT_EQ(records.size(), 2u);

  std::istringstream bad(
      "{\"t\":1,\"cat\":\"net\",\"ev\":\"a\",\"host\":0}\n"
      "oops\n");
  records.clear();
  EXPECT_FALSE(read_jsonl(bad, &records, &error));
  EXPECT_NE(error.find("2"), std::string::npos)
      << "error should name the offending line: " << error;
}

TEST(JsonSyntax, AcceptsValidDocuments) {
  std::string error;
  for (const char* ok :
       {"{}", "[]", "null", "true", "-1.5e3", "\"a\\u00e9b\"",
        R"([{"a":[1,2,{"b":null}]},"x"])", "  [1,\n2]  "}) {
    EXPECT_TRUE(json_syntax_valid(ok, &error)) << ok << ": " << error;
  }
}

TEST(JsonSyntax, RejectsInvalidDocuments) {
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "[1 2]", "nul", "\"unterminated",
        "01", "[1],", "{\"a\" 1}", "\"bad\\q\""}) {
    EXPECT_FALSE(json_syntax_valid(bad, &error)) << bad;
  }
}

TEST(JsonSyntax, RejectsPathologicalNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  std::string error;
  EXPECT_FALSE(json_syntax_valid(deep, &error));
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
}

// Shared traced run for the query tests: 4 clusters, lossy trunks so gap
// filling actually fires.
class TracedRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo::ClusteredWanOptions wan;
    wan.clusters = 4;
    wan.hosts_per_cluster = 3;
    wan.expensive.loss_probability = 0.15;
    std::ostringstream os;
    JsonlSink sink(os);
    harness::Experiment e(make_clustered_wan(wan).topology,
                          fast_options(23));
    e.set_trace_sink(&sink);
    e.enable_metric_sampling(sim::seconds(1));
    e.start();
    e.broadcast_stream(6, sim::milliseconds(500), sim::seconds(1));
    const sim::TimePoint done = e.run_until_delivered(sim::seconds(180));
    ASSERT_TRUE(e.all_delivered());
    e.sampler()->sample_now();
    sink.close();

    std::istringstream is(os.str());
    std::string error;
    records_ = new std::vector<TraceRecord>;
    ASSERT_TRUE(read_jsonl(is, records_, &error)) << error;
    host_count_ = static_cast<std::int32_t>(e.host_count());
    source_ = e.source().value;
    done_at_ = done;
  }
  static void TearDownTestSuite() {
    delete records_;
    records_ = nullptr;
  }

  static std::vector<TraceRecord>* records_;
  static std::int32_t host_count_;
  static std::int32_t source_;
  static sim::TimePoint done_at_;
};

std::vector<TraceRecord>* TracedRunTest::records_ = nullptr;
std::int32_t TracedRunTest::host_count_ = 0;
std::int32_t TracedRunTest::source_ = 0;
sim::TimePoint TracedRunTest::done_at_ = 0;

TEST_F(TracedRunTest, ManifestLeadsTheTrace) {
  const TraceRecord* m = find_manifest(*records_);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m, &records_->front());
  EXPECT_EQ(field_int(*m, "seed"), 23);
  EXPECT_EQ(field_string(*m, "protocol"), "paper");
  EXPECT_FALSE(field_string(*m, "topology").empty());
  EXPECT_FALSE(field_string(*m, "config").empty());
}

TEST_F(TracedRunTest, SummaryCountsAllCategories) {
  const TraceSummary s = summarize(*records_);
  EXPECT_EQ(s.records, records_->size());
  EXPECT_EQ(s.host_count, static_cast<std::size_t>(host_count_));
  EXPECT_EQ(s.by_category.count("manifest"), 1u);
  EXPECT_GT(s.by_category.at("protocol"), 0u);
  EXPECT_GT(s.by_category.at("net"), 0u);
  EXPECT_GT(s.by_category.at("metric"), 0u);
  // Every host (source included) logs a delivery of each of the 6
  // messages.
  EXPECT_EQ(s.deliveries, static_cast<std::size_t>(host_count_) * 6u);
  EXPECT_GT(s.drops, 0u) << "lossy trunks should drop something";
  EXPECT_EQ(s.max_seq, 6u);
  EXPECT_GE(s.last_at, s.first_at);
  EXPECT_GT(s.by_event.count("metric/latency"), 0u);
}

TEST_F(TracedRunTest, TimelineIsPerHostAndTimeOrdered) {
  const std::vector<TraceRecord> line = timeline(*records_, 3);
  ASSERT_FALSE(line.empty());
  sim::TimePoint prev = 0;
  for (const TraceRecord& r : line) {
    EXPECT_EQ(r.host.value, 3);
    EXPECT_GE(r.at, prev);
    prev = r.at;
  }
  EXPECT_TRUE(timeline(*records_, 99).empty());
}

TEST_F(TracedRunTest, LineageReconstructsFullRelayAndGapFillPath) {
  // The acceptance gate: the lineage of one seq on the 4-cluster run
  // must contain the relay hops reaching every host, and — because any
  // delivery may arrive via gap fill on a lossy run — at least one seq
  // across the run should show gap-fill repair events.
  std::vector<std::int32_t> hosts;
  for (std::int32_t h = 0; h < host_count_; ++h) hosts.push_back(h);

  std::size_t gapfill_steps = 0;
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    const std::vector<LineageStep> steps = lineage(*records_, seq);
    ASSERT_FALSE(steps.empty()) << "seq " << seq;
    sim::TimePoint prev = 0;
    std::size_t delivered_events = 0;
    for (const LineageStep& s : steps) {
      EXPECT_GE(s.at, prev);
      prev = s.at;
      if (s.event == "delivered") ++delivered_events;
      if (s.event.rfind("gapfill-", 0) == 0) ++gapfill_steps;
    }
    EXPECT_EQ(delivered_events, static_cast<std::size_t>(host_count_))
        << "seq " << seq;
    EXPECT_TRUE(lineage_covers(steps, source_, hosts))
        << "seq " << seq
        << ": delivery edges do not connect the source to every host";
  }
  EXPECT_GT(gapfill_steps, 0u)
      << "a 15%-loss run should repair at least one gap";
  EXPECT_TRUE(lineage(*records_, 999).empty());
}

TEST_F(TracedRunTest, LineageCoversDetectsIncompletePaths) {
  const std::vector<LineageStep> steps = lineage(*records_, 1);
  // Dropping every deliver edge into host 2 must break coverage.
  std::vector<LineageStep> pruned;
  for (const LineageStep& s : steps) {
    if (s.event == "deliver" && s.host == 2) continue;
    pruned.push_back(s);
  }
  std::vector<std::int32_t> hosts;
  for (std::int32_t h = 0; h < host_count_; ++h) hosts.push_back(h);
  EXPECT_FALSE(lineage_covers(pruned, source_, hosts));
}

TEST_F(TracedRunTest, ConvergenceTimelineMatchesAttachActivity) {
  const ConvergenceTimeline c = convergence_timeline(*records_);
  // Every non-source host attaches at least once to join the tree.
  EXPECT_GE(c.attaches, static_cast<std::size_t>(host_count_ - 1));
  EXPECT_GT(c.last_change_at, 0);
  EXPECT_LE(c.last_change_at, done_at_);
}

TEST_F(TracedRunTest, RenderersProduceOutput) {
  std::ostringstream summary;
  print_summary(summary, *records_);
  EXPECT_NE(summary.str().find("protocol"), std::string::npos);
  EXPECT_NE(summary.str().find("seed=23"), std::string::npos);

  std::ostringstream lin;
  print_lineage(lin, lineage(*records_, 2), 2);
  EXPECT_NE(lin.str().find("deliver"), std::string::npos);

  std::ostringstream conv;
  print_convergence(conv, *records_);
  EXPECT_NE(conv.str().find("attach"), std::string::npos);
}

// --- sim-vs-real comparison -------------------------------------------------

TraceRecord delivered(std::int64_t t, std::int32_t host, std::uint64_t seq) {
  TraceRecord r;
  r.at = t;
  r.category = "protocol";
  r.name = "delivered";
  r.host = HostId{host};
  r.field("seq", seq);
  return r;
}

TEST(Compare, DeliveryMapCollectsSortedPerHostSets) {
  // Out-of-order receipt (real networks reorder) must not affect the map.
  const std::vector<TraceRecord> records = {
      delivered(30, 1, 3), delivered(10, 1, 1), delivered(20, 1, 2),
      delivered(15, 0, 1)};
  const DeliveryMap m = delivery_map(records);
  ASSERT_EQ(m.by_host.size(), 2u);
  EXPECT_EQ(m.by_host.at(1), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(m.by_host.at(0), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(m.max_seq, 3u);
  EXPECT_EQ(m.last_delivery_at, 30);
}

TEST(Compare, IdenticalSetsMatchAcrossDifferentTimings) {
  // Virtual vs wall timestamps differ wildly; only the sets matter.
  const std::vector<TraceRecord> sim_run = {delivered(1000, 0, 1),
                                            delivered(2000, 1, 1)};
  const std::vector<TraceRecord> real_run = {delivered(987654, 1, 1),
                                             delivered(123456, 0, 1)};
  const TraceComparison cmp = compare_traces(sim_run, real_run);
  EXPECT_TRUE(cmp.match);
  EXPECT_TRUE(cmp.divergences.empty());
}

TEST(Compare, MissingHostAndMissingSeqDiverge) {
  const std::vector<TraceRecord> left = {delivered(1, 0, 1), delivered(2, 0, 2),
                                         delivered(3, 1, 1)};
  const std::vector<TraceRecord> right = {delivered(1, 0, 1),
                                          delivered(2, 0, 2)};
  const TraceComparison cmp = compare_traces(left, right);
  EXPECT_FALSE(cmp.match);
  ASSERT_FALSE(cmp.divergences.empty());
  EXPECT_NE(cmp.divergences[0].find("h1"), std::string::npos);

  const std::vector<TraceRecord> gap = {delivered(1, 0, 1), delivered(3, 1, 1)};
  const TraceComparison cmp2 = compare_traces(left, gap);
  EXPECT_FALSE(cmp2.match);
  bool names_seq = false;
  for (const std::string& d : cmp2.divergences) {
    names_seq = names_seq || d.find("only in left") != std::string::npos;
  }
  EXPECT_TRUE(names_seq);
}

TEST(Compare, DuplicateDeliveryBreaksTheMatch) {
  // The protocol promises at-most-once; a duplicated "delivered" record in
  // one trace must diverge even though the sets' unique elements agree.
  const std::vector<TraceRecord> clean = {delivered(1, 0, 1)};
  const std::vector<TraceRecord> dup = {delivered(1, 0, 1),
                                        delivered(2, 0, 1)};
  const TraceComparison cmp = compare_traces(clean, dup);
  EXPECT_FALSE(cmp.match);
}

TEST(Compare, EmptyTracesNeverMatch) {
  const TraceComparison cmp = compare_traces({}, {});
  EXPECT_FALSE(cmp.match);
  ASSERT_FALSE(cmp.divergences.empty());
}

TEST_F(TracedRunTest, CompareIsReflexiveAndPrintsAReport) {
  const TraceComparison cmp = compare_traces(*records_, *records_);
  EXPECT_TRUE(cmp.match);
  EXPECT_EQ(cmp.left.by_host.size(), static_cast<std::size_t>(host_count_));
  EXPECT_EQ(cmp.left.max_seq, 6u);

  std::ostringstream os;
  print_comparison(os, cmp, "sim.jsonl", "real.jsonl");
  EXPECT_NE(os.str().find("MATCH"), std::string::npos);
  EXPECT_NE(os.str().find("sim.jsonl"), std::string::npos);

  // Removing one host's deliveries must flip the verdict and name the host.
  std::vector<TraceRecord> pruned;
  for (const TraceRecord& r : *records_) {
    if (r.category == "protocol" && r.name == "delivered" && r.host.value == 2)
      continue;
    pruned.push_back(r);
  }
  const TraceComparison diverged = compare_traces(*records_, pruned);
  EXPECT_FALSE(diverged.match);
  std::ostringstream os2;
  print_comparison(os2, diverged, "a", "b");
  EXPECT_NE(os2.str().find("DIVERGED"), std::string::npos);
  EXPECT_NE(os2.str().find("h2"), std::string::npos);
}

}  // namespace
}  // namespace rbcast::trace
