// Tests for the anti-entropy gossip baseline.
#include "core/gossip_protocol.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "net/fault_plan.h"
#include "topo/generators.h"
#include "transport/sim_transport.h"

namespace rbcast::core {
namespace {

harness::ScenarioOptions gossip_options(std::uint64_t seed = 1) {
  harness::ScenarioOptions options;
  options.protocol_kind = harness::ProtocolKind::kGossip;
  options.gossip.gossip_period = sim::milliseconds(500);
  options.gossip.fanout = 2;
  options.seed = seed;
  return options;
}

TEST(Gossip, MessageSizesAndKinds) {
  EXPECT_STREQ(kind_of(GossipMessage{GossipDigest{}}), "gossip_digest");
  EXPECT_STREQ(kind_of(GossipMessage{GossipData{1, "x"}}), "data");
  EXPECT_LT(wire_size(GossipMessage{GossipDigest{SeqSet::contiguous(5), false}}),
            wire_size(GossipMessage{GossipData{1, std::string(200, 'x')}}));
}

TEST(Gossip, RejectsZeroFanout) {
  sim::Simulator simulator;
  util::RngFactory rngs{1};
  auto wan = topo::make_single_cluster(2);
  net::Network network(simulator, wan.topology, net::NetConfig{}, rngs);
  transport::SimTransport transport(simulator, network);
  GossipConfig config;
  config.fanout = 0;
  EXPECT_THROW(GossipNode(transport, HostId{0}, HostId{0},
                          wan.topology.host_ids(), config, util::Rng(1)),
               std::invalid_argument);
  // A rejected construction leaves nothing attached.
  EXPECT_NO_THROW(GossipNode(transport, HostId{0}, HostId{0},
                             wan.topology.host_ids(), GossipConfig{},
                             util::Rng(1)));
}

TEST(Gossip, EpidemicSpreadsTheWholeStream) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 3;
  harness::Experiment e(make_clustered_wan(wan).topology, gossip_options());
  e.start();
  e.broadcast_stream(10, sim::milliseconds(500), sim::seconds(1));
  e.run_until_delivered(sim::seconds(300));
  EXPECT_TRUE(e.all_delivered());
  for (HostId h : e.topology().host_ids()) {
    EXPECT_EQ(e.gossip_node(h).counters().deliveries, 10u) << h;
  }
}

TEST(Gossip, SurvivesLossAndDuplication) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 3;
  wan.expensive.loss_probability = 0.3;
  wan.cheap.loss_probability = 0.05;
  wan.expensive.duplication_probability = 0.2;
  harness::Experiment e(make_clustered_wan(wan).topology,
                        gossip_options(7));
  e.start();
  e.broadcast_stream(8, sim::milliseconds(500), sim::seconds(1));
  e.run_until_delivered(sim::seconds(600));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Gossip, HealsAcrossAPartition) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 2;
  const auto built = make_clustered_wan(wan);
  harness::Experiment e(built.topology, gossip_options(3));
  e.faults().partition_window({built.trunks[0]}, sim::seconds(2),
                              sim::seconds(30));
  e.start();
  e.broadcast_stream(10, sim::seconds(1), sim::seconds(1));
  e.run_until_delivered(sim::seconds(300));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Gossip, PullLegFetchesWhatTheDigestRevealed) {
  // Direct unit exercise of the push-pull logic: a digest from a peer that
  // is *ahead* must trigger a reply digest (the pull), and a digest from a
  // peer that is *behind* must trigger pushes.
  sim::Simulator simulator;
  util::RngFactory rngs{1};
  auto wan = topo::make_single_cluster(2);
  net::Network network(simulator, wan.topology, net::NetConfig{}, rngs);
  transport::SimTransport transport(simulator, network);

  std::vector<std::unique_ptr<GossipNode>> nodes;
  for (HostId h : wan.topology.host_ids()) {
    nodes.push_back(std::make_unique<GossipNode>(
        transport, h, HostId{0}, wan.topology.host_ids(), GossipConfig{},
        rngs.stream("g", h.value)));
  }
  nodes[0]->broadcast("m1");
  nodes[0]->broadcast("m2");

  // Host 1 (empty) receives host 0's digest: no pushes possible from host
  // 1, but it must reply with its own digest; host 0 then pushes both
  // messages. Simulate by direct delivery.
  nodes[1]->on_delivery(net::Delivery{
      .from = HostId{0},
      .to = HostId{1},
      .expensive = false,
      .payload = std::any(GossipMessage{
          GossipDigest{nodes[0]->info(), /*reply=*/false}}),
      .bytes = 64,
      .kind = "gossip_digest",
      .sent_at = 0,
      .hops = 1});
  simulator.run_until(sim::seconds(2));
  EXPECT_EQ(nodes[1]->info().count(), 2u);
  EXPECT_GE(nodes[0]->counters().pushes_sent, 2u);
}

TEST(Gossip, DuplicatesAreCounted) {
  sim::Simulator simulator;
  util::RngFactory rngs{1};
  auto wan = topo::make_single_cluster(2);
  net::Network network(simulator, wan.topology, net::NetConfig{}, rngs);
  transport::SimTransport transport(simulator, network);
  GossipNode node(transport, HostId{1}, HostId{0}, wan.topology.host_ids(),
                  GossipConfig{}, util::Rng(1));
  for (int copy = 0; copy < 3; ++copy) {
    node.on_delivery(net::Delivery{
        .from = HostId{0},
        .to = HostId{1},
        .expensive = false,
        .payload = std::any(GossipMessage{GossipData{1, "m1"}}),
        .bytes = 64,
        .kind = "data",
        .sent_at = 0,
        .hops = 1});
  }
  EXPECT_EQ(node.counters().deliveries, 1u);
  EXPECT_EQ(node.counters().duplicates, 2u);
}

}  // namespace
}  // namespace rbcast::core
