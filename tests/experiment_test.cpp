// Tests for the harness layer itself (Experiment wiring).
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast::harness {
namespace {

using rbcast::testing::fast_config;

ScenarioOptions fast_options() {
  ScenarioOptions options;
  options.protocol = fast_config();
  options.protocol.data_bytes = 32;
  return options;
}

TEST(Experiment, RejectsBadConfiguration) {
  topo::Topology empty;
  EXPECT_THROW(Experiment(std::move(empty), ScenarioOptions{}),
               std::invalid_argument);

  ScenarioOptions bad_source;
  bad_source.source = HostId{42};
  EXPECT_THROW(
      Experiment(topo::make_single_cluster(2).topology, bad_source),
      std::invalid_argument);
}

TEST(Experiment, BroadcastRecordsMetricsAndSeq) {
  Experiment e(topo::make_single_cluster(2).topology, fast_options());
  e.start();
  EXPECT_EQ(e.last_seq(), 0u);
  const util::Seq s1 = e.broadcast();
  const util::Seq s2 = e.broadcast("explicit body");
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(e.last_seq(), 2u);
  // The source's own delivery is recorded immediately.
  EXPECT_EQ(e.metrics().delivered_count(1), 1u);
}

TEST(Experiment, AllDeliveredFalseWhileStreamPending) {
  Experiment e(topo::make_single_cluster(3).topology, fast_options());
  e.start();
  EXPECT_TRUE(e.all_delivered());  // vacuously: nothing broadcast
  e.broadcast_stream(3, sim::seconds(1), sim::seconds(5));
  // Stream scheduled but not started: must NOT count as delivered.
  EXPECT_FALSE(e.all_delivered());
  e.run_until_delivered(sim::seconds(60));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Experiment, RunUntilDeliveredStopsEarlyOnCompletion) {
  Experiment e(topo::make_single_cluster(3).topology, fast_options());
  e.start();
  e.broadcast_stream(2, sim::milliseconds(100), sim::seconds(1));
  const sim::TimePoint done = e.run_until_delivered(sim::seconds(500));
  EXPECT_LT(done, sim::seconds(60));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Experiment, RunUntilDeliveredHitsDeadlineWhenPartitioned) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 1;
  const auto built = make_clustered_wan(wan);
  Experiment e(built.topology, fast_options());
  e.network().set_link_up(built.trunks[0], false);  // permanent partition
  e.start();
  e.broadcast();
  const sim::TimePoint done = e.run_until_delivered(sim::seconds(30));
  EXPECT_EQ(done, sim::seconds(30));
  EXPECT_FALSE(e.all_delivered());
}

TEST(Experiment, BasicProtocolModeWiresBaseline) {
  ScenarioOptions options = fast_options();
  options.protocol_kind = ProtocolKind::kBasic;
  options.basic.retransmit_period = sim::milliseconds(500);
  Experiment e(topo::make_single_cluster(3).topology, options);
  e.start();
  e.broadcast();
  e.run_until_delivered(sim::seconds(30));
  EXPECT_TRUE(e.all_delivered());
  EXPECT_GE(e.basic_source().counters().first_sends, 2u);
}

// Every protocol attaches through the experiment's SimTransport, so
// Config::batch_flush_delay coalesces the baselines' frames too.
void expect_batched_delivery(ProtocolKind kind) {
  ScenarioOptions options = fast_options();
  options.protocol_kind = kind;
  options.protocol.batch_flush_delay = sim::milliseconds(5);
  options.basic.retransmit_period = sim::milliseconds(500);
  options.gossip.gossip_period = sim::milliseconds(500);
  Experiment e(topo::make_clustered_wan({.clusters = 2, .hosts_per_cluster = 3})
                   .topology,
               options);
  ASSERT_TRUE(e.transport().batching());
  e.start();
  constexpr int kMessages = 20;
  e.broadcast_stream(kMessages, sim::milliseconds(1), sim::seconds(1));
  e.run_until_delivered(sim::seconds(120));

  EXPECT_TRUE(e.all_delivered());
  for (util::Seq seq = 1; seq <= kMessages; ++seq) {
    EXPECT_EQ(e.metrics().delivered_count(seq), e.host_count()) << seq;
  }
  if (kind == ProtocolKind::kGossip) {
    for (HostId h : e.topology().host_ids()) {
      EXPECT_EQ(e.gossip_node(h).counters().deliveries,
                static_cast<std::uint64_t>(kMessages))
          << h;
    }
  }
  EXPECT_GT(e.transport().coalescer_stats().batches_flushed, 0u);
}

TEST(Experiment, BasicBaselineRunsOverTheBatchingTransport) {
  expect_batched_delivery(ProtocolKind::kBasic);
}

TEST(Experiment, GossipBaselineRunsOverTheBatchingTransport) {
  expect_batched_delivery(ProtocolKind::kGossip);
}

TEST(Experiment, SourceCanBeAnyHost) {
  ScenarioOptions options = fast_options();
  options.source = HostId{2};
  Experiment e(topo::make_single_cluster(3).topology, options);
  e.start();
  e.host(HostId{2}).broadcast("from host 2");
  // Wait: Experiment::broadcast targets the configured source.
  e.broadcast();
  e.run_until_delivered(sim::seconds(60));
  EXPECT_TRUE(e.all_delivered());
  EXPECT_FALSE(e.host(HostId{2}).parent().valid());
  const auto report = e.convergence();
  EXPECT_TRUE(report.tree_rooted_at_source) << report.detail;
}

TEST(Experiment, StaticClusterKnowledgeSeedsGroundTruth) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 2;
  ScenarioOptions options = fast_options();
  options.protocol.cluster_knowledge =
      core::Config::ClusterKnowledge::kStatic;
  Experiment e(make_clustered_wan(wan).topology, options);
  // Before any message flows, CLUSTER sets already match ground truth.
  EXPECT_TRUE(e.host(HostId{0}).state().in_cluster(HostId{1}));
  EXPECT_FALSE(e.host(HostId{0}).state().in_cluster(HostId{2}));
}

TEST(Experiment, HostViewsExposeAllHosts) {
  Experiment e(topo::make_single_cluster(4).topology, fast_options());
  const auto views = e.host_views();
  ASSERT_EQ(views.size(), 4u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i]->self().value, static_cast<std::int32_t>(i));
  }
}

}  // namespace
}  // namespace rbcast::harness
