// Destroying a protocol node mid-run detaches it from its transport: the
// messages still in flight toward it land on SimTransport's parked sink
// (never on freed memory), and the surviving nodes finish the run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/basic_protocol.h"
#include "core/gossip_protocol.h"
#include "core/multi_source.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "support/fast_config.h"
#include "topo/generators.h"
#include "transport/sim_transport.h"
#include "util/rng.h"

namespace rbcast::core {
namespace {

// Counts the messages addressed to one host that entered and left the
// network (the default links are lossless, so every one is delivered).
struct InboundCounter final : net::NetObserver {
  explicit InboundCounter(HostId watched) : host(watched) {}
  void on_host_send(const net::Delivery& d) override {
    if (d.to == host) ++sent;
  }
  void on_deliver(const net::Delivery& d) override {
    if (d.to == host) ++delivered;
  }
  [[nodiscard]] bool in_flight() const { return sent > delivered; }

  HostId host;
  int sent{0};
  int delivered{0};
};

// Two clusters of two hosts over the real network substrate, wired
// through a SimTransport, with traffic toward `doomed` counted.
struct World {
  sim::Simulator sim;
  util::RngFactory rngs{5};
  topo::Wan wan{
      topo::make_clustered_wan({.clusters = 2, .hosts_per_cluster = 2})};
  net::Network network{sim, wan.topology, net::NetConfig{}, rngs};
  transport::SimTransport transport{sim, network};
  InboundCounter inbound;
  std::vector<HostId> all{wan.topology.host_ids()};

  explicit World(HostId doomed) : inbound(doomed) {
    network.set_observer(&inbound);
  }

  // Fires events until a message addressed to the doomed host is on the
  // wire.
  void step_until_inbound_in_flight() {
    while (!inbound.in_flight()) ASSERT_TRUE(sim.step());
  }

  void run_for(sim::Duration d) { sim.run_until(sim.now() + d); }
};

TEST(ProtocolDetach, DestroyedGossipNodeIsDetached) {
  const HostId doomed{3};
  World w(doomed);
  GossipConfig config;
  config.gossip_period = sim::milliseconds(200);
  config.fanout = 3;  // every peer, the doomed one included
  std::vector<std::unique_ptr<GossipNode>> nodes;
  for (HostId h : w.all) {
    nodes.push_back(std::make_unique<GossipNode>(w.transport, h, HostId{0},
                                                 w.all, config,
                                                 w.rngs.stream("g", h.value)));
  }
  for (auto& node : nodes) node->start();
  nodes[0]->broadcast("m1");
  nodes[0]->broadcast("m2");

  w.step_until_inbound_in_flight();
  nodes[3].reset();
  const int delivered_before = w.inbound.delivered;
  nodes[0]->broadcast("m3");
  w.run_for(sim::seconds(10));

  EXPECT_GT(w.inbound.delivered, delivered_before);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(nodes[static_cast<std::size_t>(i)]->counters().deliveries, 3u)
        << i;
  }
}

TEST(ProtocolDetach, DestroyedBasicReceiverIsDetached) {
  const HostId doomed{3};
  World w(doomed);
  BasicSource source(w.transport, HostId{0}, w.all,
                     BasicConfig{.retransmit_period = sim::milliseconds(500)},
                     w.rngs.stream("src"));
  std::vector<std::unique_ptr<BasicReceiver>> receivers;
  for (int i = 1; i < 4; ++i) {
    receivers.push_back(
        std::make_unique<BasicReceiver>(w.transport, HostId{i}));
  }
  source.start();
  source.broadcast("m1");  // one copy per receiver, all on the wire now

  ASSERT_TRUE(w.inbound.in_flight());
  receivers[2].reset();
  const int delivered_before = w.inbound.delivered;
  source.broadcast("m2");
  w.run_for(sim::seconds(5));

  EXPECT_GT(w.inbound.delivered, delivered_before);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(receivers[static_cast<std::size_t>(i)]->counters().deliveries,
              2u)
        << i;
  }
  // The basic algorithm retransmits to the dead host forever.
  EXPECT_EQ(source.pending(), 2u);
  EXPECT_GT(source.counters().retransmissions, 0u);
}

TEST(ProtocolDetach, DestroyedMultiSourceNodeIsDetached) {
  const HostId doomed{2};
  World w(doomed);
  const Config config = rbcast::testing::fast_config();
  const std::vector<HostId> sources{HostId{0}, HostId{3}};
  std::vector<std::unique_ptr<MultiSourceNode>> nodes;
  for (HostId h : w.all) {
    nodes.push_back(std::make_unique<MultiSourceNode>(w.transport, h, sources,
                                                      w.all, config, w.rngs));
  }
  for (auto& node : nodes) node->start();
  nodes[0]->broadcast("a1");
  nodes[3]->broadcast("b1");
  w.run_for(sim::seconds(5));

  nodes[0]->broadcast("a2");
  nodes[3]->broadcast("b2");
  w.step_until_inbound_in_flight();
  nodes[2].reset();
  const int delivered_before = w.inbound.delivered;
  nodes[0]->broadcast("a3");
  nodes[3]->broadcast("b3");
  w.run_for(sim::seconds(60));

  EXPECT_GT(w.inbound.delivered, delivered_before);
  for (int i : {0, 1, 3}) {
    EXPECT_EQ(nodes[static_cast<std::size_t>(i)]->total_deliveries(), 6u) << i;
  }
}

}  // namespace
}  // namespace rbcast::core
