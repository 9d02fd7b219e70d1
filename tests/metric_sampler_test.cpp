// MetricSampler: periodic "metric" records on the virtual clock —
// counter deltas that sum back to the totals, latency distributions with
// monotone cumulative buckets, per-server backlog, and tree shape.
#include "trace/metric_sampler.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "support/fast_config.h"
#include "topo/generators.h"

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

// Keeps every record in memory for assertions.
class CollectingSink final : public TraceSink {
 public:
  void record(const TraceRecord& r) override { records.push_back(r); }

  [[nodiscard]] std::vector<TraceRecord> named(
      const std::string& name) const {
    std::vector<TraceRecord> out;
    for (const TraceRecord& r : records) {
      if (r.category == "metric" && r.name == name) out.push_back(r);
    }
    return out;
  }

  std::vector<TraceRecord> records;
};

double field_double(const TraceRecord& r, const std::string& key) {
  for (const auto& [k, v] : r.fields) {
    if (k != key) continue;
    if (const auto* d = std::get_if<double>(&v)) return *d;
    if (const auto* u = std::get_if<std::uint64_t>(&v)) {
      return static_cast<double>(*u);
    }
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      return static_cast<double>(*i);
    }
  }
  ADD_FAILURE() << "missing numeric field " << key;
  return -1.0;
}

// One sampled experiment shared by the assertions below.
class MetricSamplerRunTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sink_ = new CollectingSink;
    topo::ClusteredWanOptions wan;
    wan.clusters = 3;
    wan.hosts_per_cluster = 2;
    e_ = new harness::Experiment(make_clustered_wan(wan).topology,
                                 fast_options(9));
    e_->set_trace_sink(sink_);
    e_->enable_metric_sampling(sim::seconds(1));
    e_->start();
    e_->broadcast_stream(5, sim::milliseconds(400), sim::seconds(1));
    e_->run_until_delivered(sim::seconds(60));
    ASSERT_TRUE(e_->all_delivered());
    e_->sampler()->sample_now();
  }
  static void TearDownTestSuite() {
    delete e_;
    delete sink_;
    e_ = nullptr;
    sink_ = nullptr;
  }

  static CollectingSink* sink_;
  static harness::Experiment* e_;
};

CollectingSink* MetricSamplerRunTest::sink_ = nullptr;
harness::Experiment* MetricSamplerRunTest::e_ = nullptr;

TEST_F(MetricSamplerRunTest, PeriodicSamplesFireOnTheVirtualClock) {
  const std::vector<TraceRecord> counters = sink_->named("counters");
  // One per elapsed period plus the explicit end-of-run sample.
  ASSERT_GE(counters.size(), 2u);
  EXPECT_EQ(e_->sampler()->samples_taken(), counters.size());
  for (std::size_t i = 0; i + 1 < counters.size(); ++i) {
    EXPECT_EQ(counters[i].at, sim::seconds(static_cast<int>(i) + 1))
        << "periodic samples must land exactly on the period grid";
  }
}

TEST_F(MetricSamplerRunTest, CounterDeltasSumToTheFinalTotals) {
  std::map<std::string, std::uint64_t> summed;
  for (const TraceRecord& r : sink_->named("counters")) {
    for (const auto& [key, value] : r.fields) {
      summed[key] += std::get<std::uint64_t>(value);
    }
  }
  ASSERT_FALSE(summed.empty());
  EXPECT_GT(summed.count("deliver.data"), 0u);
  for (const auto& [name, total] : summed) {
    EXPECT_EQ(total, e_->metrics().counter(name))
        << "deltas of " << name << " must sum back to the final total";
  }
}

TEST_F(MetricSamplerRunTest, LatencySamplesCarryMonotoneCumulativeBuckets) {
  const std::vector<TraceRecord> latency = sink_->named("latency");
  ASSERT_FALSE(latency.empty());
  const TraceRecord& last = latency.back();

  const auto expected = e_->metrics().all_latencies();
  EXPECT_EQ(static_cast<std::uint64_t>(field_double(last, "count")),
            expected.count());
  const double p50 = field_double(last, "p50_s");
  const double p95 = field_double(last, "p95_s");
  const double p99 = field_double(last, "p99_s");
  const double max = field_double(last, "max_s");
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, max);
  EXPECT_GT(field_double(last, "mean_s"), 0.0);

  // Cumulative le_* buckets: non-decreasing in the bound, capped by count.
  double prev = 0.0;
  std::size_t buckets = 0;
  for (const auto& [key, value] : last.fields) {
    if (key.rfind("le_", 0) != 0) continue;
    ++buckets;
    const double c = static_cast<double>(std::get<std::uint64_t>(value));
    EXPECT_GE(c, prev) << key;
    EXPECT_LE(c, field_double(last, "count")) << key;
    prev = c;
  }
  EXPECT_EQ(buckets, trace::MetricSampler::latency_bounds().size());

  // The series is cumulative over the run, so counts never shrink.
  std::uint64_t prev_count = 0;
  for (const TraceRecord& r : latency) {
    const auto count = static_cast<std::uint64_t>(field_double(r, "count"));
    EXPECT_GE(count, prev_count);
    prev_count = count;
  }
}

TEST_F(MetricSamplerRunTest, BacklogReportsPerServerSeconds) {
  const std::vector<TraceRecord> backlog = sink_->named("backlog");
  ASSERT_FALSE(backlog.empty());
  for (const TraceRecord& r : backlog) {
    ASSERT_FALSE(r.fields.empty());
    for (const auto& [key, value] : r.fields) {
      EXPECT_EQ(key.rfind("s", 0), 0u) << key;
      ASSERT_TRUE(std::holds_alternative<double>(value)) << key;
      EXPECT_GE(std::get<double>(value), 0.0) << key;
    }
  }
}

TEST_F(MetricSamplerRunTest, TreeShapeConvergesToNoOrphans) {
  const std::vector<TraceRecord> tree = sink_->named("tree");
  ASSERT_FALSE(tree.empty());
  const TraceRecord& last = tree.back();
  // Fully delivered implies a connected tree: every non-source host has a
  // parent and at least the source's own cluster has a leader.
  EXPECT_GE(field_double(last, "depth"), 1.0);
  EXPECT_GE(field_double(last, "leaders"), 1.0);
  EXPECT_EQ(field_double(last, "orphans"), 0.0);
  // The trace counts leaders as every other report does, source included.
  const ConvergenceReport report = e_->convergence();
  EXPECT_EQ(field_double(last, "leaders"),
            static_cast<double>(report.leader_count));
  EXPECT_EQ(field_double(last, "depth"), static_cast<double>(report.depth));
}

TEST_F(MetricSamplerRunTest, QuietIntervalStillEmitsAFieldlessSample) {
  const std::size_t before = sink_->records.size();
  // Nothing has happened since the previous sample_now(), so the counter
  // record must be present but empty (series gaps stay distinguishable
  // from sampling having stopped).
  e_->sampler()->sample_now();
  const std::vector<TraceRecord> counters = sink_->named("counters");
  ASSERT_GT(sink_->records.size(), before);
  EXPECT_TRUE(counters.back().fields.empty());
}

TEST(MetricSampler, RejectsNonPositivePeriod) {
  sim::Simulator simulator;
  topo::ClusteredWanOptions wan;
  wan.clusters = 1;
  wan.hosts_per_cluster = 2;
  topo::Topology topology = make_clustered_wan(wan).topology;
  util::RngFactory rngs(1);
  net::Network network(simulator, topology, net::NetConfig{}, rngs);
  Metrics metrics(simulator, network);
  CollectingSink sink;
  EXPECT_THROW(MetricSampler(simulator, metrics, sink, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rbcast::trace
