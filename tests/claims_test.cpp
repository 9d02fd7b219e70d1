// Claim-level regression tests: miniature versions of the bench scenarios
// asserting the *direction* of every Section 5/6 result. If a code change
// flips who wins an experiment, these fail — the reproduction's
// conclusions are part of the test suite.
#include <gtest/gtest.h>

#include "core/config.h"
#include "harness/experiment.h"
#include "topo/generators.h"

namespace rbcast {
namespace {

using harness::Experiment;
using harness::ProtocolKind;
using harness::ScenarioOptions;

// Every scenario runs the benches' own size-aware protocol timing,
// core::Config::for_size(n), so these claims cannot drift from the
// experiments they stand for.
using core::Config;

// Shared runner: warm up, stream, return the experiment for inspection.
std::unique_ptr<Experiment> run_scenario(topo::Topology topology,
                                         ProtocolKind kind, int messages,
                                         std::uint64_t seed = 1) {
  ScenarioOptions options;
  options.protocol_kind = kind;
  options.protocol = Config::for_size(topology.host_count());
  options.seed = seed;
  auto e = std::make_unique<Experiment>(std::move(topology), options);
  e->start();
  e->broadcast();  // warm-up
  e->run_for(sim::seconds(30));
  e->metrics().reset();
  e->broadcast_stream(messages, sim::milliseconds(500),
                      e->simulator().now() + sim::milliseconds(1));
  e->run_until_delivered(e->simulator().now() + sim::seconds(300),
                         sim::milliseconds(200));
  return e;
}

// E1: the tree's inter-cluster cost sits near k-1; basic pays ~m*(k-1).
TEST(Claims, TreeCostNearOptimalBasicScalesWithHosts) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 4;
  wan.hosts_per_cluster = 3;
  wan.shape = topo::TrunkShape::kRing;
  constexpr int kMessages = 20;

  auto tree = run_scenario(make_clustered_wan(wan).topology,
                           ProtocolKind::kPaper, kMessages);
  auto basic = run_scenario(make_clustered_wan(wan).topology,
                            ProtocolKind::kBasic, kMessages);
  ASSERT_TRUE(tree->all_delivered());
  ASSERT_TRUE(basic->all_delivered());

  const double tree_cost =
      static_cast<double>(tree->metrics().intercluster_data_sends()) /
      kMessages;
  const double basic_cost =
      static_cast<double>(basic->metrics().intercluster_data_sends()) /
      kMessages;
  // k-1 = 3; allow some gap-fill slack but nowhere near basic's 9.
  EXPECT_LT(tree_cost, 4.5);
  EXPECT_GE(tree_cost, 3.0);
  EXPECT_GT(basic_cost, 8.0);
  EXPECT_GT(basic_cost, 1.8 * tree_cost);
}

// E2: comparable delay at small scale, tree wins at medium scale.
TEST(Claims, TreeDelayComparableSmallAndBetterAtScale) {
  topo::ClusteredWanOptions small;
  small.clusters = 2;
  small.hosts_per_cluster = 1;
  auto tree_small = run_scenario(make_clustered_wan(small).topology,
                                 ProtocolKind::kPaper, 20);
  auto basic_small = run_scenario(make_clustered_wan(small).topology,
                                  ProtocolKind::kBasic, 20);
  const double tree_mean = tree_small->metrics().all_latencies().mean();
  const double basic_mean = basic_small->metrics().all_latencies().mean();
  EXPECT_LT(tree_mean, basic_mean * 1.5 + 0.01);  // comparable

  topo::ClusteredWanOptions big;
  big.clusters = 4;
  big.hosts_per_cluster = 6;
  auto tree_big = run_scenario(make_clustered_wan(big).topology,
                               ProtocolKind::kPaper, 20, 2);
  auto basic_big = run_scenario(make_clustered_wan(big).topology,
                                ProtocolKind::kBasic, 20, 2);
  EXPECT_LT(tree_big->metrics().all_latencies().mean(),
            basic_big->metrics().all_latencies().mean());
}

// E3: the tree's redelivery traffic is mostly intra-cluster; basic's is
// essentially all inter-cluster.
TEST(Claims, RecoveryLocalityUnderLoss) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 3;
  wan.expensive.loss_probability = 0.10;
  wan.cheap.loss_probability = 0.02;

  auto tree = run_scenario(make_clustered_wan(wan).topology,
                           ProtocolKind::kPaper, 20, 3);
  auto basic = run_scenario(make_clustered_wan(wan).topology,
                            ProtocolKind::kBasic, 20, 3);
  ASSERT_TRUE(tree->all_delivered());
  ASSERT_TRUE(basic->all_delivered());

  const auto& tm = tree->metrics();
  const double tree_redeliveries =
      static_cast<double>(tm.counter("send.gapfill"));
  const double tree_inter =
      static_cast<double>(tm.counter("send.intercluster.gapfill"));
  ASSERT_GT(tree_redeliveries, 0.0);
  EXPECT_LT(tree_inter / tree_redeliveries, 0.7);

  const auto& bm = basic->metrics();
  const double basic_retx = static_cast<double>(bm.counter("send.data_retx"));
  const double basic_inter =
      static_cast<double>(bm.counter("send.intercluster.data_retx"));
  if (basic_retx > 0) {
    EXPECT_GT(basic_inter / basic_retx, 0.7);
  }
}

// E5: the basic algorithm's source-server backlog exceeds the tree's.
TEST(Claims, BasicCongestsTheSourceServer) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 4;
  wan.hosts_per_cluster = 6;
  wan.shape = topo::TrunkShape::kStar;
  const auto built_a = make_clustered_wan(wan);
  const auto built_b = make_clustered_wan(wan);
  const ServerId source_server = built_a.topology.host(HostId{0}).server;

  // A burst: messages with no spacing.
  ScenarioOptions options;
  options.protocol = Config::for_size(built_a.topology.host_count());
  options.protocol.data_bytes = 1024;

  auto run_burst = [&](topo::Topology t, ProtocolKind kind) {
    options.protocol_kind = kind;
    auto e = std::make_unique<Experiment>(std::move(t), options);
    e->start();
    e->broadcast();
    e->run_for(sim::seconds(30));
    e->metrics().reset();
    e->broadcast_stream(15, 0, e->simulator().now() + sim::milliseconds(1));
    e->run_until_delivered(e->simulator().now() + sim::seconds(600),
                           sim::milliseconds(200));
    return e->metrics().max_queue_backlog_seconds(source_server);
  };
  const double tree_backlog =
      run_burst(built_a.topology, ProtocolKind::kPaper);
  const double basic_backlog =
      run_burst(built_b.topology, ProtocolKind::kBasic);
  EXPECT_GT(basic_backlog, 2.0 * tree_backlog);
}

// E6: control traffic is independent of the data rate.
TEST(Claims, ControlTrafficIndependentOfDataRate) {
  auto control_rate = [&](int messages) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 3;
    wan.hosts_per_cluster = 2;
    const auto built = make_clustered_wan(wan);
    ScenarioOptions options;
    options.protocol = Config::for_size(built.topology.host_count());
    Experiment e(built.topology, options);
    e.start();
    e.broadcast();
    e.run_for(sim::seconds(20));
    e.metrics().reset();
    const sim::TimePoint t0 = e.simulator().now();
    if (messages > 0) {
      e.broadcast_stream(messages, sim::milliseconds(500),
                         t0 + sim::milliseconds(1));
    }
    e.run_until(t0 + sim::seconds(60));
    const auto& m = e.metrics();
    const double data = static_cast<double>(m.counter("send.data") +
                                            m.counter("send.gapfill"));
    return (static_cast<double>(m.host_sends()) - data) / 60.0;
  };
  const double idle = control_rate(0);
  const double busy = control_rate(100);
  EXPECT_NEAR(busy, idle, idle * 0.1 + 0.5);
}

// E14: ordering costs delay under loss, nothing without loss.
TEST(Claims, OrderingCostsDelayOnlyUnderLoss) {
  auto mean_delay = [&](double loss, bool ordered) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 2;
    wan.hosts_per_cluster = 2;
    wan.expensive.loss_probability = loss;
    const auto built = make_clustered_wan(wan);
    ScenarioOptions options;
    options.protocol = Config::for_size(built.topology.host_count());
    options.ordered_delivery = ordered;
    options.seed = 9;
    Experiment e(built.topology, options);
    e.start();
    e.broadcast();
    e.run_for(sim::seconds(20));
    e.metrics().reset();
    e.broadcast_stream(30, sim::milliseconds(400),
                       e.simulator().now() + sim::milliseconds(1));
    e.run_until_delivered(e.simulator().now() + sim::seconds(300),
                          sim::milliseconds(100));
    return e.metrics().all_latencies().mean();
  };
  EXPECT_NEAR(mean_delay(0.0, false), mean_delay(0.0, true), 1e-6);
  EXPECT_LT(mean_delay(0.20, false), mean_delay(0.20, true));
}

}  // namespace
}  // namespace rbcast
