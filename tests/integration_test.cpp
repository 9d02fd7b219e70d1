// End-to-end scenarios over the full stack: simulator + network substrate +
// protocol. These validate the paper's qualitative guarantees: eventual
// exactly-once delivery under loss, duplication, reordering, link failures
// and partitions, plus the Figure 4.1 behaviour.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast {
namespace {

using harness::Experiment;
using harness::ProtocolKind;
using harness::ScenarioOptions;
using rbcast::testing::fast_config;

ScenarioOptions paper_options(std::uint64_t seed = 1) {
  ScenarioOptions options;
  options.protocol = fast_config();
  options.seed = seed;
  return options;
}

TEST(Integration, FaultFreeWanDeliversEverythingExactlyOnce) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 2;
  ScenarioOptions options = paper_options();
  // Fault-free, so the full monitor (safety + liveness from t=0) applies.
  options.monitor_invariants = true;
  options.monitor.orphan_limit = sim::seconds(20);
  options.monitor.converge_deadline = sim::seconds(30);
  Experiment e(make_clustered_wan(wan).topology, options);
  e.monitor()->set_faults_quiet_at(sim::TimePoint{0});
  e.start();
  e.broadcast_stream(10, sim::milliseconds(500), sim::seconds(1));
  const auto done = e.run_until_delivered(sim::seconds(120));
  EXPECT_TRUE(e.all_delivered()) << "undelivered by t="
                                 << sim::to_seconds(done);
  // Exactly-once: per-host delivery counters equal the stream length.
  for (HostId h : e.topology().host_ids()) {
    EXPECT_EQ(e.host(h).counters().deliveries, 10u) << h;
  }
  // Run through the liveness deadlines; the monitor must stay silent.
  e.run_until(sim::seconds(40));
  e.monitor()->finish();
  EXPECT_TRUE(e.monitor()->ok())
      << e.monitor()->violations()[0].invariant << ": "
      << e.monitor()->violations()[0].description;
}

TEST(Integration, SurvivesHeavyLossOnTrunks) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 2;
  wan.expensive.loss_probability = 0.3;
  wan.cheap.loss_probability = 0.05;
  Experiment e(make_clustered_wan(wan).topology, paper_options(42));
  e.start();
  e.broadcast_stream(10, sim::milliseconds(500), sim::seconds(1));
  e.run_until_delivered(sim::seconds(300));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Integration, SurvivesDuplicationAndReordering) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 3;
  wan.expensive.duplication_probability = 0.3;
  wan.cheap.duplication_probability = 0.1;
  ScenarioOptions options = paper_options(7);
  options.net.jitter_max = sim::milliseconds(5);
  Experiment e(make_clustered_wan(wan).topology, options);
  e.start();
  e.broadcast_stream(10, sim::milliseconds(300), sim::seconds(1));
  e.run_until_delivered(sim::seconds(200));
  EXPECT_TRUE(e.all_delivered());
  for (HostId h : e.topology().host_ids()) {
    EXPECT_EQ(e.host(h).counters().deliveries, 10u);
  }
}

TEST(Integration, TrunkOutageIsRoutedAroundOrRepaired) {
  // Ring of clusters: when one trunk dies, the other direction still
  // connects everyone; the tree reorganizes via parent timeouts.
  topo::ClusteredWanOptions wan;
  wan.clusters = 4;
  wan.hosts_per_cluster = 1;
  wan.shape = topo::TrunkShape::kRing;
  const auto built = make_clustered_wan(wan);
  Experiment e(built.topology, paper_options());
  // Kill one trunk for a long window mid-stream.
  e.faults().outage_window(built.trunks[0], sim::seconds(5),
                           sim::seconds(60));
  e.start();
  e.broadcast_stream(20, sim::milliseconds(500), sim::seconds(1));
  e.run_until_delivered(sim::seconds(300));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Integration, PartitionHealsAndStreamCompletes) {
  // Line of 3 clusters; cutting the first trunk isolates the source's
  // cluster. Messages broadcast during the partition must reach the cut-off
  // clusters after repair.
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 2;
  wan.shape = topo::TrunkShape::kLine;
  const auto built = make_clustered_wan(wan);
  Experiment e(built.topology, paper_options());
  e.faults().partition_window({built.trunks[0]}, sim::seconds(3),
                              sim::seconds(40));
  e.start();
  e.broadcast_stream(15, sim::seconds(1), sim::seconds(1));

  e.run_for(sim::seconds(30));
  EXPECT_FALSE(e.all_delivered());  // partition still open

  e.run_until_delivered(sim::seconds(300));
  EXPECT_TRUE(e.all_delivered());
  const auto report = e.convergence();
  EXPECT_TRUE(report.all_caught_up) << report.detail;
}

TEST(Integration, HostCrashRecoversViaGapFilling) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 3;
  wan.intra_cluster_ring = true;
  const auto built = make_clustered_wan(wan);
  ScenarioOptions options = paper_options();
  options.monitor_invariants = true;
  options.monitor.orphan_limit = sim::seconds(20);
  options.monitor.converge_deadline = sim::seconds(30);
  Experiment e(built.topology, options);
  // Crash a non-source host mid-stream.
  e.faults().host_crash_window(HostId{4}, sim::seconds(5), sim::seconds(20));
  e.monitor()->set_faults_quiet_at(sim::seconds(22));
  e.start();
  e.broadcast_stream(15, sim::milliseconds(800), sim::seconds(1));
  e.schedule_broadcast_at(sim::seconds(24));  // liveness anchor
  e.run_until_delivered(sim::seconds(300));
  EXPECT_TRUE(e.all_delivered());
  // Through the C2/C3 deadlines (anchor 24s): recovery must look healthy
  // to the monitor, not merely complete.
  e.run_until(sim::seconds(60));
  e.monitor()->finish();
  EXPECT_TRUE(e.monitor()->ok())
      << e.monitor()->violations()[0].invariant << ": "
      << e.monitor()->violations()[0].description;
}

// Engineers the exact Section 4.4 / Figure 4.1 state on the triangle
// topology: after a warm-up message, two broadcasts are selectively lost
// (one to i, the other to j) by sending them while the direct trunk's
// routing entry is stale, a final broadcast reaches both (making their
// INFO maxima equal, so no reattachment can ever help), and the source is
// then muted for good via its access link. Between broadcasts the source
// is also muted so its own gap-filling cannot repair the engineered holes.
// End state: s isolated, INFO_i = {1,3,4}, INFO_j = {1,2,4}.
struct Figure41Scenario {
  topo::Figure41 fig = topo::make_figure_4_1();
  std::unique_ptr<Experiment> e;
  LinkId source_access;

  explicit Figure41Scenario(ScenarioOptions options) {
    // i and j must keep s as their parent throughout (the paper's premise:
    // the parent graph stays rooted at s), so parent liveness is disabled.
    options.protocol.parent_timeout = sim::seconds(100000);
    e = std::make_unique<Experiment>(fig.topology, options);
    source_access = e->topology().host(fig.s).access_link;
  }

  void mute_source(bool mute) {
    e->network().set_link_up(source_access, !mute);
  }

  void run_engineered_losses() {
    auto& net = e->network();
    e->start();
    e->broadcast();  // seq 1: warm-up, forms the tree s -> {i, j}
    e->run_for(sim::seconds(10));
    ASSERT_TRUE(e->all_delivered());

    // All three selective losses happen inside one routing-convergence
    // window (200 ms), so that i and j end with *equal* INFO maxima and
    // neither can ever look like a better parent for the other (that is
    // the crux of the paper's example: reattachment cannot help). The
    // forwarding tables stay stale (direct-trunk routes) throughout; a
    // packet hitting a downed direct trunk is silently lost. Toggles are
    // spaced ~60 ms apart because a trunk going *down* also kills copies
    // still in flight on it (~40 ms of trunk time each).
    net.set_link_up(fig.trunk_si, false);
    e->run_for(sim::milliseconds(1));
    e->broadcast();  // seq 2: trunk s-i is down -> reaches only j
    e->run_for(sim::milliseconds(59));  // let j's copy land
    net.set_link_up(fig.trunk_si, true);
    net.set_link_up(fig.trunk_sj, false);
    e->run_for(sim::milliseconds(1));
    e->broadcast();  // seq 3: trunk s-j is down -> reaches only i
    e->run_for(sim::milliseconds(59));  // let i's copy land
    net.set_link_up(fig.trunk_sj, true);
    e->run_for(sim::milliseconds(1));
    e->broadcast();  // seq 4: both trunks up -> reaches both
    e->run_for(sim::milliseconds(60));
    mute_source(true);  // s is cut off for good

    // Just long enough for the in-flight seq-4 copies to land (~50 ms of
    // trunk time); the state must be checked before a periodic far
    // gap-fill round gets a chance to begin healing the holes.
    e->run_for(sim::milliseconds(100));
    ASSERT_EQ(e->host(fig.s).info().count(), 4u);
    ASSERT_FALSE(e->host(fig.i).info().contains(2));
    ASSERT_FALSE(e->host(fig.j).info().contains(3));
    ASSERT_TRUE(e->host(fig.i).info().contains(3));
    ASSERT_TRUE(e->host(fig.j).info().contains(2));
    ASSERT_EQ(e->host(fig.i).info().max_seq(), 4u);
    ASSERT_EQ(e->host(fig.j).info().max_seq(), 4u);
  }
};

TEST(Integration, Figure41NonNeighborGapFillingCompletesDelivery) {
  ScenarioOptions options = paper_options();
  Figure41Scenario scenario(options);
  scenario.run_engineered_losses();

  // i and j have complementary gaps but equal-max INFO sets: neither may
  // raise the other's maximum and no reattachment is possible — only
  // non-neighbor gap filling (they are not parent-graph neighbors) helps.
  auto& e = *scenario.e;
  e.run_for(sim::seconds(60));
  EXPECT_EQ(e.host(scenario.fig.i).info().count(), 4u);
  EXPECT_EQ(e.host(scenario.fig.j).info().count(), 4u);
  // Their parents never changed: the fill really was non-neighbor.
  EXPECT_EQ(e.host(scenario.fig.i).parent(), scenario.fig.s);
  EXPECT_EQ(e.host(scenario.fig.j).parent(), scenario.fig.s);
}

TEST(Integration, Figure41FailsWithoutNonNeighborGapFilling) {
  // Ablation: with the Section 4.4 extension disabled, the same scenario
  // must stall (this is exactly why the paper adds it).
  ScenarioOptions options = paper_options();
  options.protocol.nonneighbor_gapfill = false;
  Figure41Scenario scenario(options);
  scenario.run_engineered_losses();

  auto& e = *scenario.e;
  e.run_for(sim::seconds(120));
  EXPECT_FALSE(e.host(scenario.fig.i).info().contains(2));
  EXPECT_FALSE(e.host(scenario.fig.j).info().contains(3));
}

TEST(Integration, BaselineDeliversToo) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 2;
  ScenarioOptions options;
  options.protocol_kind = ProtocolKind::kBasic;
  options.basic.retransmit_period = sim::seconds(1);
  Experiment e(make_clustered_wan(wan).topology, options);
  e.start();
  e.broadcast_stream(5, sim::milliseconds(500), sim::seconds(1));
  e.run_until_delivered(sim::seconds(120));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Integration, BaselineRetransmitsThroughLoss) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 2;
  wan.expensive.loss_probability = 0.4;
  ScenarioOptions options;
  options.protocol_kind = ProtocolKind::kBasic;
  options.basic.retransmit_period = sim::milliseconds(500);
  options.seed = 5;
  Experiment e(make_clustered_wan(wan).topology, options);
  e.start();
  e.broadcast_stream(5, sim::milliseconds(500), sim::seconds(1));
  e.run_until_delivered(sim::seconds(120));
  EXPECT_TRUE(e.all_delivered());
  EXPECT_GT(e.basic_source().counters().retransmissions, 0u);
}

TEST(Integration, ClusterKnowledgeModesAllDeliver) {
  for (auto mode : {core::Config::ClusterKnowledge::kDynamic,
                    core::Config::ClusterKnowledge::kStatic,
                    core::Config::ClusterKnowledge::kNone}) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 2;
    wan.hosts_per_cluster = 2;
    ScenarioOptions options = paper_options();
    options.protocol.cluster_knowledge = mode;
    Experiment e(make_clustered_wan(wan).topology, options);
    e.start();
    e.broadcast_stream(5, sim::milliseconds(500), sim::seconds(1));
    e.run_until_delivered(sim::seconds(200));
    EXPECT_TRUE(e.all_delivered())
        << "mode=" << static_cast<int>(mode);
  }
}

TEST(Integration, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 2;
    wan.hosts_per_cluster = 2;
    wan.expensive.loss_probability = 0.1;
    Experiment e(make_clustered_wan(wan).topology, paper_options(seed));
    e.start();
    e.broadcast_stream(5, sim::milliseconds(500), sim::seconds(1));
    e.run_for(sim::seconds(30));
    return e.metrics().host_sends();
  };
  EXPECT_EQ(run_once(9), run_once(9));
  EXPECT_NE(run_once(9), run_once(10));  // different seeds diverge
}

}  // namespace
}  // namespace rbcast
