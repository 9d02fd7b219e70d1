// TraceSink backends and the end-to-end tracing acceptance gates:
//  * JSONL formatting (escaping, typed fields, stable field order);
//  * Chrome trace_event export is structurally valid JSON with the
//    expected metadata / instant / counter phases;
//  * a deterministic replay (same seed, same topology) produces a
//    byte-identical JSONL trace;
//  * the run manifest carries everything needed to reproduce the run.
#include "trace/trace_sink.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "harness/experiment.h"
#include "harness/workload.h"
#include "support/fast_config.h"
#include "topo/generators.h"
#include "trace/trace_reader.h"

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

// Runs a small 4-cluster scenario streamed into `sink`; returns whether
// everything delivered.
bool run_traced(TraceSink& sink, std::uint64_t seed, double loss = 0.0,
                sim::Duration sample_period = 0) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 4;
  wan.hosts_per_cluster = 2;
  wan.expensive.loss_probability = loss;
  harness::Experiment e(make_clustered_wan(wan).topology,
                        fast_options(seed));
  e.set_trace_sink(&sink);
  if (sample_period > 0) e.enable_metric_sampling(sample_period);
  e.start();
  e.broadcast_stream(8, sim::milliseconds(400), sim::seconds(1));
  e.run_until_delivered(sim::seconds(120));
  if (e.sampler() != nullptr) e.sampler()->sample_now();
  sink.close();
  return e.all_delivered();
}

TEST(JsonlSink, EscapesAndTypesFields) {
  std::ostringstream os;
  JsonlSink sink(os);
  TraceRecord r;
  r.at = 42;
  r.category = "net";
  r.name = "weird";
  r.host = HostId{3};
  r.field("str", std::string("a\"b\\c\nd\x01"))
      .field("neg", std::int64_t{-7})
      .field("big", std::uint64_t{1} << 50)
      .field("ratio", 0.5)
      .field("flag", true);
  sink.record(r);
  EXPECT_EQ(os.str(),
            "{\"t\":42,\"cat\":\"net\",\"ev\":\"weird\",\"host\":3,"
            "\"str\":\"a\\\"b\\\\c\\nd\\u0001\",\"neg\":-7,"
            "\"big\":1125899906842624,\"ratio\":0.5,\"flag\":true}\n");
}

TEST(JsonlSink, RunGlobalRecordsUseHostMinusOne) {
  std::ostringstream os;
  JsonlSink sink(os);
  TraceRecord r;
  r.category = "metric";
  r.name = "counters";
  sink.record(r);
  EXPECT_NE(os.str().find("\"host\":-1"), std::string::npos);
}

TEST(MultiSink, FansOutAndCloses) {
  std::ostringstream a;
  std::ostringstream b;
  JsonlSink sink_a(a);
  ChromeTraceSink sink_b(b);
  MultiSink multi;
  multi.add(&sink_a);
  multi.add(&sink_b);
  TraceRecord r;
  r.category = "protocol";
  r.name = "delivered";
  r.host = HostId{0};
  multi.record(r);
  multi.close();
  EXPECT_NE(a.str().find("delivered"), std::string::npos);
  EXPECT_NE(b.str().find("delivered"), std::string::npos);
  std::string error;
  EXPECT_TRUE(json_syntax_valid(b.str(), &error)) << error;
}

TEST(RunManifest, CarriesReproductionParameters) {
  const TraceRecord m =
      run_manifest(7, "4 clusters", "paper", "attach_period=2s");
  EXPECT_EQ(m.category, "manifest");
  ASSERT_NE(find_field(m, "seed"), nullptr);
  EXPECT_EQ(field_int(m, "seed", -1), 7);
  EXPECT_EQ(field_string(m, "topology"), "4 clusters");
  EXPECT_EQ(field_string(m, "protocol"), "paper");
  EXPECT_EQ(field_string(m, "config"), "attach_period=2s");
  EXPECT_FALSE(field_string(m, "build").empty());

  const std::string line = manifest_line(m);
  EXPECT_NE(line.find("seed=7"), std::string::npos);
  EXPECT_NE(line.find("protocol=paper"), std::string::npos);
}

TEST(RunManifest, ConfigTextNamesTheDataPlaneAndAuthentication) {
  const core::Config plain;
  core::Config batched;
  batched.batch_flush_delay = sim::milliseconds(5);
  core::Config authenticated;
  authenticated.auth_enabled = true;
  EXPECT_NE(describe_config(plain), describe_config(batched));
  EXPECT_NE(describe_config(plain), describe_config(authenticated));
  EXPECT_NE(describe_config(plain).find("batch_flush=0s"), std::string::npos);
  EXPECT_NE(describe_config(batched).find("batch_flush=0.005s"),
            std::string::npos);
  EXPECT_NE(describe_config(authenticated).find("auth=1"), std::string::npos);
}

TEST(TraceDeterminism, SameSeedYieldsByteIdenticalJsonl) {
  std::ostringstream first;
  std::ostringstream second;
  {
    JsonlSink sink(first);
    EXPECT_TRUE(run_traced(sink, 11, 0.1, sim::milliseconds(500)));
  }
  {
    JsonlSink sink(second);
    EXPECT_TRUE(run_traced(sink, 11, 0.1, sim::milliseconds(500)));
  }
  ASSERT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str())
      << "replaying the same seed/topology must reproduce the trace "
         "byte for byte";

  // Leave the trace on disk for CI failure artifacts (uploaded when a
  // ctest job fails).
  std::ofstream artifact("trace_determinism.jsonl");
  artifact << first.str();
}

TEST(TraceDeterminism, DifferentSeedChangesTheTrace) {
  std::ostringstream first;
  std::ostringstream second;
  {
    JsonlSink sink(first);
    run_traced(sink, 11);
  }
  {
    JsonlSink sink(second);
    run_traced(sink, 12);
  }
  EXPECT_NE(first.str(), second.str());
}

TEST(ChromeTrace, ExportIsStructurallyValidTraceEventJson) {
  std::ostringstream os;
  {
    ChromeTraceSink sink(os);
    EXPECT_TRUE(run_traced(sink, 5, 0.0, sim::milliseconds(500)));
  }
  const std::string text = os.str();
  std::string error;
  ASSERT_TRUE(json_syntax_valid(text, &error)) << error;

  // The three trace_event phases the backend emits: metadata (process /
  // thread names), instant protocol/net events, and metric counters.
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"thread_name\""), std::string::npos);
  // Per-host tracks ride distinct tids (host N -> tid N+1).
  EXPECT_NE(text.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(text.find("\"tid\":8"), std::string::npos);
}

TEST(ChromeTrace, CloseIsIdempotentAndFinalizesArray) {
  std::ostringstream os;
  ChromeTraceSink sink(os);
  TraceRecord r;
  r.category = "protocol";
  r.name = "delivered";
  r.host = HostId{2};
  sink.record(r);
  sink.close();
  sink.close();
  const std::string text = os.str();
  std::string error;
  EXPECT_TRUE(json_syntax_valid(text, &error)) << error;
  // Records after close are ignored, not appended past the closing ']'.
  sink.record(r);
  EXPECT_EQ(os.str(), text);
}

TEST(EventLogSink, MirrorLeavesDigestUnchanged) {
  // The digest is the PR-1 determinism gate; mirroring to a sink must
  // not perturb it.
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  EventLog plain(sim_a);
  EventLog mirrored(sim_b);
  std::ostringstream os;
  JsonlSink sink(os);
  mirrored.set_sink(&sink);

  for (EventLog* log : {&plain, &mirrored}) {
    log->on_attach_requested(HostId{1}, HostId{0}, "I.1");
    log->on_attached(HostId{1}, HostId{0});
    log->on_gapfill_offered(HostId{0}, HostId{1}, 3);
    log->on_gapfill_accepted(HostId{1}, HostId{0}, 3);
    log->on_gapfill_relayed(HostId{1}, HostId{2}, 3);
    log->on_delivered(HostId{1}, 3);
  }
  EXPECT_EQ(plain.digest(), mirrored.digest());
  EXPECT_NE(os.str().find("gapfill-offered"), std::string::npos);
  EXPECT_NE(os.str().find("gapfill-accepted"), std::string::npos);
  EXPECT_NE(os.str().find("gapfill-relayed"), std::string::npos);
}

}  // namespace
}  // namespace rbcast::trace
