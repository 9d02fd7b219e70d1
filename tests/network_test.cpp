#include "net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "topo/generators.h"

namespace rbcast::net {
namespace {

struct Received {
  HostId from;
  bool expensive;
  std::string payload;
  sim::TimePoint at;
  int hops;
};

struct Harness {
  sim::Simulator sim;
  util::RngFactory rngs{1};
  topo::Topology topology;
  std::unique_ptr<Network> network;
  std::vector<std::vector<Received>> inbox;

  void init(topo::Topology t, NetConfig config = {}) {
    topology = std::move(t);
    network = std::make_unique<Network>(sim, topology, config, rngs);
    inbox.resize(topology.host_count());
    for (const auto& h : topology.hosts()) {
      network->register_host(h.id, [this, id = h.id](const Delivery& d) {
        inbox[static_cast<std::size_t>(id.value)].push_back(
            Received{d.from, d.expensive,
                     std::any_cast<std::string>(d.payload), sim.now(),
                     d.hops});
      });
    }
  }

  void send(HostId from, HostId to, const std::string& body,
            std::size_t bytes = 100) {
    network->send(from, to, std::any(body), bytes, "data");
  }
};

// Counts every observer callback.
struct CountingObserver : NetObserver {
  int sends = 0, delivers = 0, drops = 0, transmits = 0, backlogs = 0;
  void on_host_send(const Delivery&) override { ++sends; }
  void on_deliver(const Delivery&) override { ++delivers; }
  void on_drop(const Delivery&, DropReason) override { ++drops; }
  void on_link_transmit(LinkId, const Delivery&) override { ++transmits; }
  void on_queue_backlog(ServerId, LinkId, sim::Duration) override {
    ++backlogs;
  }
};

TEST(Network, DeliversAcrossClusters) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 2;
  h.init(make_clustered_wan(options).topology);

  h.send(HostId{0}, HostId{3}, "hello");
  h.sim.run_until(sim::seconds(2));
  ASSERT_EQ(h.inbox[3].size(), 1u);
  EXPECT_EQ(h.inbox[3][0].payload, "hello");
  EXPECT_EQ(h.inbox[3][0].from, HostId{0});
}

TEST(Network, CostBitSetOnlyForExpensivePaths) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 2;
  h.init(make_clustered_wan(options).topology);

  h.send(HostId{0}, HostId{1}, "intra");  // same cluster: cheap path
  h.send(HostId{0}, HostId{2}, "inter");  // crosses the expensive trunk
  h.sim.run_until(sim::seconds(2));
  ASSERT_EQ(h.inbox[1].size(), 1u);
  EXPECT_FALSE(h.inbox[1][0].expensive);
  ASSERT_EQ(h.inbox[2].size(), 1u);
  EXPECT_TRUE(h.inbox[2][0].expensive);
}

TEST(Network, ExpensivePathTakesLonger) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 2;
  h.init(make_clustered_wan(options).topology);

  h.send(HostId{0}, HostId{1}, "intra");
  h.send(HostId{0}, HostId{2}, "inter");
  h.sim.run_until(sim::seconds(5));
  ASSERT_EQ(h.inbox[1].size(), 1u);
  ASSERT_EQ(h.inbox[2].size(), 1u);
  EXPECT_LT(h.inbox[1][0].at, h.inbox[2][0].at);
}

TEST(Network, DownTrunkSilentlyDropsUntilRerouteConverges) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  const auto wan = make_clustered_wan(options);
  NetConfig config;
  config.convergence_lag = sim::milliseconds(100);
  h.init(wan.topology, config);
  const LinkId trunk = wan.trunks[0];

  h.network->set_link_up(trunk, false);
  h.send(HostId{0}, HostId{1}, "lost");
  h.sim.run_until(sim::seconds(2));
  EXPECT_TRUE(h.inbox[1].empty());  // no route, no error reported
}

TEST(Network, RecoversAfterLinkRepair) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  const auto wan = make_clustered_wan(options);
  NetConfig config;
  config.convergence_lag = sim::milliseconds(100);
  h.init(wan.topology, config);
  const LinkId trunk = wan.trunks[0];

  h.network->set_link_up(trunk, false);
  h.sim.run_until(sim::seconds(1));
  h.network->set_link_up(trunk, true);
  h.sim.run_until(sim::seconds(2));  // allow reconvergence
  h.send(HostId{0}, HostId{1}, "after-repair");
  h.sim.run_until(sim::seconds(4));
  ASSERT_EQ(h.inbox[1].size(), 1u);
}

TEST(Network, AccessLinkDownIsolatesHostBothWays) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 1;
  options.hosts_per_cluster = 2;
  h.init(make_clustered_wan(options).topology);
  const LinkId access = h.topology.host(HostId{1}).access_link;
  h.network->set_link_up(access, false);

  h.send(HostId{0}, HostId{1}, "to-crashed");
  h.send(HostId{1}, HostId{0}, "from-crashed");
  h.sim.run_until(sim::seconds(2));
  EXPECT_TRUE(h.inbox[1].empty());
  EXPECT_TRUE(h.inbox[0].empty());
}

TEST(Network, LossyLinkDropsSomeMessages) {
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  options.expensive.loss_probability = 0.5;
  Harness h;
  h.init(make_clustered_wan(options).topology);

  for (int i = 0; i < 200; ++i) {
    h.sim.run_until(h.sim.now() + sim::seconds(1));
    h.send(HostId{0}, HostId{1}, "maybe");
  }
  h.sim.run_until(h.sim.now() + sim::seconds(5));
  const auto got = h.inbox[1].size();
  EXPECT_GT(got, 50u);
  EXPECT_LT(got, 150u);
}

TEST(Network, DuplicatingLinkDeliversTwice) {
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  options.expensive.duplication_probability = 1.0;
  Harness h;
  h.init(make_clustered_wan(options).topology);

  h.send(HostId{0}, HostId{1}, "twice");
  h.sim.run_until(sim::seconds(5));
  EXPECT_EQ(h.inbox[1].size(), 2u);
}

TEST(Network, ObserverSeesSendTransmitDeliver) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  h.init(make_clustered_wan(options).topology);
  CountingObserver obs;
  h.network->set_observer(&obs);

  h.send(HostId{0}, HostId{1}, "watched");
  h.sim.run_until(sim::seconds(2));
  EXPECT_EQ(obs.sends, 1);
  EXPECT_EQ(obs.delivers, 1);
  EXPECT_EQ(obs.transmits, 1);  // exactly one trunk hop
  EXPECT_EQ(obs.drops, 0);
  EXPECT_GE(obs.backlogs, 1);
}

TEST(Network, ClusterQueriesTrackLinkState) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 1;
  options.hosts_per_cluster = 2;
  h.init(make_clustered_wan(options).topology);

  EXPECT_TRUE(h.network->same_cluster(HostId{0}, HostId{1}));
  EXPECT_EQ(h.network->clusters().size(), 1u);

  // Cut the cheap trunk between the two servers: cluster splits.
  for (const auto& l : h.topology.links()) {
    if (!l.is_access) h.network->set_link_up(l.id, false);
  }
  EXPECT_FALSE(h.network->same_cluster(HostId{0}, HostId{1}));
  EXPECT_EQ(h.network->clusters().size(), 2u);
  EXPECT_FALSE(h.network->connected(HostId{0}, HostId{1}));
}

TEST(Network, TopologyEpochBumpsOnChange) {
  Harness h;
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  const auto wan = make_clustered_wan(options);
  h.init(wan.topology);

  const auto before = h.network->topology_epoch();
  h.network->set_link_up(wan.trunks[0], false);
  EXPECT_EQ(h.network->topology_epoch(), before + 1);
  h.network->set_link_up(wan.trunks[0], false);  // no-op
  EXPECT_EQ(h.network->topology_epoch(), before + 1);
}

TEST(Network, RejectsInvalidConfig) {
  sim::Simulator sim;
  util::RngFactory rngs{1};
  const auto wan =
      topo::make_clustered_wan({.clusters = 1, .hosts_per_cluster = 1});
  NetConfig bad_ttl;
  bad_ttl.ttl = 0;
  EXPECT_THROW(Network(sim, wan.topology, bad_ttl, rngs),
               std::invalid_argument);
  NetConfig bad_jitter;
  bad_jitter.jitter_max = -1;
  EXPECT_THROW(Network(sim, wan.topology, bad_jitter, rngs),
               std::invalid_argument);
  NetConfig bad_queue;
  bad_queue.max_queue_delay = 0;
  EXPECT_THROW(Network(sim, wan.topology, bad_queue, rngs),
               std::invalid_argument);
  NetConfig bad_lag;
  bad_lag.convergence_lag = -1;
  EXPECT_THROW(Network(sim, wan.topology, bad_lag, rngs),
               std::invalid_argument);
}

TEST(Network, RejectsSelfSend) {
  Harness h;
  h.init(topo::make_clustered_wan({.clusters = 1, .hosts_per_cluster = 2})
             .topology);
  EXPECT_THROW(h.send(HostId{0}, HostId{0}, "self"), std::invalid_argument);
}

TEST(Network, ParallelTrunksFailOverWithoutRouteChange) {
  // Two parallel expensive trunks between the same pair of servers: when
  // the first goes down, forwarding must pick the sibling immediately —
  // the routing next-hop does not even change.
  topo::Topology t;
  const ServerId s0 = t.add_server();
  const ServerId s1 = t.add_server();
  const LinkId trunk_a = t.add_link(s0, s1, topo::LinkClass::kExpensive);
  t.add_link(s0, s1, topo::LinkClass::kExpensive);
  const HostId h0 = t.add_host(s0);
  const HostId h1 = t.add_host(s1);
  (void)h0;
  (void)h1;

  Harness h;
  h.init(std::move(t));
  h.network->set_link_up(trunk_a, false);
  h.send(HostId{0}, HostId{1}, "via sibling");
  h.sim.run_until(sim::seconds(5));
  ASSERT_EQ(h.inbox[1].size(), 1u);
  EXPECT_TRUE(h.inbox[1][0].expensive);
}

TEST(Network, ServerForwardCountsAccumulate) {
  topo::ClusteredWanOptions options;
  options.clusters = 3;
  options.hosts_per_cluster = 1;
  options.shape = topo::TrunkShape::kLine;
  const auto wan = make_clustered_wan(options);
  Harness h;
  h.init(wan.topology);

  // h0 -> h2 transits the middle cluster's server.
  h.send(HostId{0}, HostId{2}, "through the middle");
  h.sim.run_until(sim::seconds(5));
  ASSERT_EQ(h.inbox[2].size(), 1u);
  const ServerId middle = wan.cluster_head_server[1];
  EXPECT_GE(h.network->server(middle).forwarded(), 1u);
}

TEST(Network, FiniteBufferTailDropsUnderOverload) {
  // A tiny queue budget: blasting many large messages down the expensive
  // trunk must tail-drop most of them rather than queue for minutes.
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  NetConfig config;
  config.max_queue_delay = sim::milliseconds(500);
  Harness h;
  h.init(make_clustered_wan(options).topology, config);
  CountingObserver obs;
  h.network->set_observer(&obs);

  // 2000-byte messages take ~290 ms each on the 56 kbit/s trunk: only the
  // first couple fit inside a 500 ms queue budget.
  for (int i = 0; i < 20; ++i) h.send(HostId{0}, HostId{1}, "x", 2000);
  h.sim.run_until(sim::seconds(30));
  EXPECT_GE(obs.drops, 10);
  EXPECT_LE(h.inbox[1].size(), 10u);
  EXPECT_GE(h.inbox[1].size(), 1u);
}

TEST(Network, GenerousBufferDeliversSameOverload) {
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  Harness h;
  h.init(make_clustered_wan(options).topology);  // default 60 s budget

  for (int i = 0; i < 20; ++i) h.send(HostId{0}, HostId{1}, "x", 2000);
  h.sim.run_until(sim::seconds(30));
  EXPECT_EQ(h.inbox[1].size(), 20u);
}

TEST(LinkStateQueue, BacklogAccessorTracksOccupancy) {
  topo::LinkParams params = topo::LinkParams::cheap_defaults();
  params.bandwidth_bytes_per_sec = 1000.0;
  topo::LinkSpec spec{.id = LinkId{0},
                      .a = ServerId{0},
                      .b = ServerId{1},
                      .link_class = topo::LinkClass::kCheap,
                      .params = params};
  LinkState link(spec, util::Rng(1));
  EXPECT_EQ(link.queue_backlog(0, 0), 0);
  link.transmit(100, 0, 0);  // 100 ms of wire time
  EXPECT_EQ(link.queue_backlog(0, 0), sim::milliseconds(100));
  EXPECT_EQ(link.queue_backlog(0, sim::milliseconds(40)),
            sim::milliseconds(60));
  EXPECT_EQ(link.queue_backlog(0, sim::milliseconds(200)), 0);
  EXPECT_EQ(link.queue_backlog(1, 0), 0);  // other direction independent
}

TEST(Network, LinkFailureKillsInFlightPackets) {
  // A message is crossing the (slow) expensive trunk when the trunk dies:
  // it must never arrive, even though the trunk later recovers.
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  const auto wan = make_clustered_wan(options);
  Harness h;
  h.init(wan.topology);

  h.send(HostId{0}, HostId{1}, "doomed", 500);  // ~70ms on the trunk
  h.sim.run_until(sim::milliseconds(30));       // mid-flight
  h.network->set_link_up(wan.trunks[0], false);
  h.sim.run_until(sim::seconds(1));
  h.network->set_link_up(wan.trunks[0], true);
  h.sim.run_until(sim::seconds(5));
  EXPECT_TRUE(h.inbox[1].empty());
}

TEST(Network, AccessLinkFailureKillsInFlightDelivery) {
  topo::ClusteredWanOptions options;
  options.clusters = 1;
  options.hosts_per_cluster = 2;
  const auto wan = make_clustered_wan(options);
  Harness h;
  h.init(wan.topology);

  // Large message: the host->server access hop takes ~0.9 ms at 10 Mbit/s
  // plus propagation; kill the access link immediately after sending.
  h.send(HostId{0}, HostId{1}, "doomed", 1000);
  const LinkId access = h.topology.host(HostId{0}).access_link;
  h.network->set_link_up(access, false);
  h.sim.run_until(sim::seconds(1));
  h.network->set_link_up(access, true);
  h.sim.run_until(sim::seconds(5));
  EXPECT_TRUE(h.inbox[1].empty());
}

TEST(Network, PacketsLandedBeforeFailureSurvive) {
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 1;
  const auto wan = make_clustered_wan(options);
  Harness h;
  h.init(wan.topology);

  h.send(HostId{0}, HostId{1}, "made it", 100);
  h.sim.run_until(sim::seconds(2));  // fully delivered
  h.network->set_link_up(wan.trunks[0], false);
  h.sim.run_until(sim::seconds(3));
  EXPECT_EQ(h.inbox[1].size(), 1u);
}

TEST(Network, JitterCausesReorderingOnSharedPath) {
  // Many messages down the same multi-hop path: with per-hop jitter, at
  // least one pair should arrive out of order relative to sending.
  topo::ClusteredWanOptions options;
  options.clusters = 3;
  options.hosts_per_cluster = 1;
  options.shape = topo::TrunkShape::kLine;
  Harness h;
  NetConfig config;
  config.jitter_max = sim::milliseconds(30);
  h.init(make_clustered_wan(options).topology, config);

  for (int i = 0; i < 40; ++i) {
    h.send(HostId{0}, HostId{2}, std::to_string(i), 10);
  }
  h.sim.run_until(sim::seconds(30));
  ASSERT_EQ(h.inbox[2].size(), 40u);
  bool out_of_order = false;
  for (std::size_t k = 1; k < h.inbox[2].size(); ++k) {
    if (std::stoi(h.inbox[2][k].payload) <
        std::stoi(h.inbox[2][k - 1].payload)) {
      out_of_order = true;
    }
  }
  EXPECT_TRUE(out_of_order);
}

TEST(Network, LinkFailureCancelsExactlyThePacketsOnThatLink) {
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 2;
  options.shape = topo::TrunkShape::kLine;
  const auto wan = make_clustered_wan(options);
  Harness h;
  h.init(wan.topology);
  const HostId near = wan.cluster_hosts[0][1];
  const HostId far = wan.cluster_hosts[1][0];

  // Three messages queue on the ~70 ms-per-message trunk; a large local
  // message is still on its 10 Mbit/s access link at the failure.
  for (int i = 0; i < 3; ++i) h.send(HostId{0}, far, "doomed", 500);
  h.sim.run_until(sim::milliseconds(29));
  h.send(HostId{0}, near, "local", 5000);
  h.sim.run_until(sim::milliseconds(30));
  ASSERT_EQ(h.network->in_flight(), 4u);
  const std::size_t pending = h.sim.pending_events();
  h.network->set_link_up(wan.trunks[0], false);
  EXPECT_EQ(h.network->in_flight(), 1u);
  // Three arrivals cancelled, one routing recompute scheduled.
  EXPECT_EQ(h.sim.pending_events(), pending - 3 + 1);
  h.sim.run_until(sim::seconds(1));
  h.network->set_link_up(wan.trunks[0], true);
  h.sim.run_until(sim::seconds(2));
  EXPECT_TRUE(h.inbox[static_cast<std::size_t>(far.value)].empty());
  EXPECT_EQ(h.inbox[static_cast<std::size_t>(near.value)].size(), 1u);
  EXPECT_EQ(h.network->in_flight(), 0u);

  // The cancelled packets' slots are reused, not leaked.
  const std::size_t capacity = h.network->in_flight_capacity();
  for (int i = 0; i < 3; ++i) h.send(HostId{0}, far, "again", 500);
  h.sim.run_until(sim::seconds(5));
  EXPECT_EQ(h.inbox[static_cast<std::size_t>(far.value)].size(), 3u);
  EXPECT_EQ(h.network->in_flight_capacity(), capacity);
}

// Host 0 and host 1 at either end of a two-trunk cheap chain: four hops.
// Only the last one, server 2 -> host 1, may duplicate.
topo::Topology chain_with_duplicating_last_hop(double duplication) {
  topo::Topology t;
  const ServerId s0 = t.add_server();
  const ServerId s1 = t.add_server();
  const ServerId s2 = t.add_server();
  t.add_link(s0, s1, topo::LinkClass::kCheap);
  t.add_link(s1, s2, topo::LinkClass::kCheap);
  t.add_host(s0);
  topo::LinkParams last = topo::LinkParams::cheap_defaults();
  last.duplication_probability = duplication;
  t.add_host(s2, last);
  return t;
}

TEST(Network, LastHopDuplicateCarriesItsOwnHopCount) {
  Harness h;
  h.init(chain_with_duplicating_last_hop(1.0));
  h.send(HostId{0}, HostId{1}, "twice");
  h.sim.run_until(sim::seconds(1));
  ASSERT_EQ(h.inbox[1].size(), 2u);
  for (const Received& r : h.inbox[1]) {
    EXPECT_EQ(r.payload, "twice");
    EXPECT_EQ(r.hops, 4);
  }
  EXPECT_LT(h.inbox[1][0].at, h.inbox[1][1].at);
}

// A payload that counts its copies (moves are free).
struct CopyCounted {
  int* copies;
  explicit CopyCounted(int* c) : copies(c) {}
  CopyCounted(const CopyCounted& o) : copies(o.copies) { ++*copies; }
  CopyCounted(CopyCounted&&) noexcept = default;
};

TEST(Network, MultiHopPathNeverCopiesThePayload) {
  sim::Simulator simulator;
  const util::RngFactory rngs{1};
  const topo::Topology topology = chain_with_duplicating_last_hop(0.0);
  Network network(simulator, topology, NetConfig{}, rngs);
  int copies = 0;
  int delivered = 0;
  int hops = 0;
  network.register_host(HostId{0}, [](const Delivery&) {});
  network.register_host(HostId{1}, [&](const Delivery& d) {
    ASSERT_NE(std::any_cast<CopyCounted>(&d.payload), nullptr);
    ++delivered;
    hops = d.hops;
  });
  network.send(HostId{0}, HostId{1}, std::any(CopyCounted(&copies)), 100,
               "data");
  simulator.run_until(sim::seconds(1));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(hops, 4);
  EXPECT_EQ(copies, 0);
}

// Host 0 on server 0 and host 1 on server 3, at the ends of a chain of
// three cheap trunks: five hops. `duplication` applies to the middle
// trunk only.
topo::Topology five_hop_chain(double duplication) {
  topo::Topology t;
  const ServerId s0 = t.add_server();
  const ServerId s1 = t.add_server();
  const ServerId s2 = t.add_server();
  const ServerId s3 = t.add_server();
  t.add_link(s0, s1, topo::LinkClass::kCheap);
  topo::LinkParams middle = topo::LinkParams::cheap_defaults();
  middle.duplication_probability = duplication;
  t.add_link(s1, s2, topo::LinkClass::kCheap, middle);
  t.add_link(s2, s3, topo::LinkClass::kCheap);
  t.add_host(s0);
  t.add_host(s3);
  return t;
}

TEST(Network, PacketKeepsOneSlabSlotForItsWholePath) {
  Harness h;
  h.init(five_hop_chain(0.0));
  h.send(HostId{0}, HostId{1}, "one slot");
  h.sim.run_until(sim::seconds(1));
  ASSERT_EQ(h.inbox[1].size(), 1u);
  EXPECT_EQ(h.inbox[1][0].hops, 5);
  EXPECT_EQ(h.network->in_flight_capacity(), 1u);
  EXPECT_EQ(h.network->in_flight(), 0u);
}

TEST(Network, TrunkDuplicateTakesExactlyOneMoreSlot) {
  Harness h;
  h.init(five_hop_chain(1.0));
  h.send(HostId{0}, HostId{1}, "twice");
  h.sim.run_until(sim::seconds(1));
  ASSERT_EQ(h.inbox[1].size(), 2u);
  for (const Received& r : h.inbox[1]) {
    EXPECT_EQ(r.payload, "twice");
    EXPECT_EQ(r.hops, 5);
  }
  EXPECT_EQ(h.network->in_flight_capacity(), 2u);
  EXPECT_EQ(h.network->in_flight(), 0u);
}

TEST(Network, LinkFailureCancelsAPacketReArmedMidPath) {
  // Host 0 -> cheap trunk -> expensive trunk -> host 1. At 30 ms a 500 B
  // message has crossed the access link and the cheap trunk in its one
  // slot and is ~70 ms into the expensive one, so that slot's event was
  // re-armed twice. Failing the expensive trunk must cancel the current
  // arrival, not a stale one.
  topo::Topology t;
  const ServerId s0 = t.add_server();
  const ServerId s1 = t.add_server();
  const ServerId s2 = t.add_server();
  t.add_link(s0, s1, topo::LinkClass::kCheap);
  const LinkId expensive = t.add_link(s1, s2, topo::LinkClass::kExpensive);
  t.add_host(s0);
  t.add_host(s2);
  Harness h;
  h.init(std::move(t));

  h.send(HostId{0}, HostId{1}, "doomed", 500);
  h.sim.run_until(sim::milliseconds(30));
  ASSERT_EQ(h.network->in_flight(), 1u);
  ASSERT_EQ(h.network->in_flight_capacity(), 1u);
  const std::size_t pending = h.sim.pending_events();
  h.network->set_link_up(expensive, false);
  EXPECT_EQ(h.network->in_flight(), 0u);
  // The arrival cancelled, one routing recompute scheduled.
  EXPECT_EQ(h.sim.pending_events(), pending - 1 + 1);
  h.sim.run_until(sim::seconds(1));
  h.network->set_link_up(expensive, true);
  h.sim.run_until(sim::seconds(5));
  EXPECT_TRUE(h.inbox[1].empty());

  // The freed slot carries the next message.
  h.send(HostId{0}, HostId{1}, "after", 500);
  h.sim.run_until(sim::seconds(10));
  EXPECT_EQ(h.inbox[1].size(), 1u);
  EXPECT_EQ(h.network->in_flight_capacity(), 1u);
}

}  // namespace
}  // namespace rbcast::net
