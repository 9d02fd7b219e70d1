// Multi-source broadcast (Section 2's "several identical single-source
// protocols") over the real network substrate.
#include "core/multi_source.h"

#include <gtest/gtest.h>

#include <map>

#include "net/fault_plan.h"
#include "net/network.h"
#include "support/fast_config.h"
#include "topo/generators.h"
#include "transport/sim_transport.h"

namespace rbcast::core {
namespace {

using rbcast::testing::fast_config;

struct Fixture {
  sim::Simulator simulator;
  util::RngFactory rngs{17};
  topo::Wan wan;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<transport::SimTransport> transport;
  std::vector<std::unique_ptr<MultiSourceNode>> nodes;
  // delivered[host][source] -> seqs in arrival order
  std::vector<std::map<HostId, std::vector<Seq>>> delivered;

  explicit Fixture(std::vector<HostId> sources,
                   topo::ClusteredWanOptions options = {.clusters = 2,
                                                        .hosts_per_cluster = 2}) {
    wan = make_clustered_wan(options);
    network = std::make_unique<net::Network>(simulator, wan.topology,
                                             net::NetConfig{}, rngs);
    transport = std::make_unique<transport::SimTransport>(simulator, *network);
    const auto all = wan.topology.host_ids();
    delivered.resize(all.size());
    for (HostId h : all) {
      const auto idx = static_cast<std::size_t>(h.value);
      nodes.push_back(std::make_unique<MultiSourceNode>(
          *transport, h, sources, all, fast_config(), rngs,
          [this, idx](HostId source, Seq seq, std::string_view) {
            delivered[idx][source].push_back(seq);
          }));
    }
    for (auto& node : nodes) node->start();
  }

  MultiSourceNode& node(int i) {
    return *nodes[static_cast<std::size_t>(i)];
  }
  void run_for(sim::Duration d) {
    simulator.run_until(simulator.now() + d);
  }
};

TEST(MultiSource, TwoStreamsDeliverEverywhereIndependently) {
  Fixture f({HostId{0}, HostId{3}});
  // Interleaved broadcasts on both streams.
  for (int k = 0; k < 5; ++k) {
    f.node(0).broadcast("a" + std::to_string(k));
    f.node(3).broadcast("b" + std::to_string(k));
    f.run_for(sim::seconds(1));
  }
  f.run_for(sim::seconds(30));

  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(f.node(h).instance(HostId{0}).info().count(), 5u)
        << "host " << h << " stream 0";
    EXPECT_EQ(f.node(h).instance(HostId{3}).info().count(), 5u)
        << "host " << h << " stream 3";
  }
}

TEST(MultiSource, StreamsHaveIndependentParentGraphs) {
  Fixture f({HostId{0}, HostId{3}});
  f.node(0).broadcast("a");
  f.node(3).broadcast("b");
  f.run_for(sim::seconds(20));

  // In each stream the root is that stream's source.
  EXPECT_FALSE(f.node(0).instance(HostId{0}).parent().valid());
  EXPECT_FALSE(f.node(3).instance(HostId{3}).parent().valid());
  // ... and the *other* host has a parent in each stream.
  EXPECT_TRUE(f.node(0).instance(HostId{3}).parent().valid());
  EXPECT_TRUE(f.node(3).instance(HostId{0}).parent().valid());
}

TEST(MultiSource, ExactlyOncePerStream) {
  Fixture f({HostId{0}, HostId{1}});
  for (int k = 0; k < 4; ++k) {
    f.node(0).broadcast("x");
    f.node(1).broadcast("y");
  }
  f.run_for(sim::seconds(30));
  for (int h = 0; h < 4; ++h) {
    for (HostId source : {HostId{0}, HostId{1}}) {
      if (HostId{h} == source) continue;
      auto seqs = f.delivered[static_cast<std::size_t>(h)][source];
      std::sort(seqs.begin(), seqs.end());
      EXPECT_EQ(seqs, (std::vector<Seq>{1, 2, 3, 4}))
          << "host " << h << " stream " << source;
    }
  }
}

TEST(MultiSource, SurvivesPartitionMidStream) {
  topo::ClusteredWanOptions options;
  options.clusters = 2;
  options.hosts_per_cluster = 2;
  Fixture f({HostId{0}, HostId{2}}, options);  // one source per cluster
  net::FaultPlan faults(f.simulator, *f.network);
  faults.partition_window({f.wan.trunks[0]}, sim::seconds(5),
                          sim::seconds(25));

  for (int k = 0; k < 10; ++k) {
    f.simulator.at(sim::seconds(1 + 2 * k), [&f] {
      f.node(0).broadcast("a");
      f.node(2).broadcast("b");
    });
  }
  f.run_for(sim::seconds(120));

  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(f.node(h).instance(HostId{0}).info().count(), 10u) << h;
    EXPECT_EQ(f.node(h).instance(HostId{2}).info().count(), 10u) << h;
  }
}

TEST(MultiSource, NonSourceCannotBroadcast) {
  Fixture f({HostId{0}});
  EXPECT_FALSE(f.node(1).is_source());
  EXPECT_TRUE(f.node(0).is_source());
  EXPECT_DEATH(f.node(1).broadcast("nope"), "not a stream source");
}

TEST(MultiSource, RejectsBadConfiguration) {
  sim::Simulator simulator;
  util::RngFactory rngs{1};
  auto wan = topo::make_single_cluster(2);
  net::Network network(simulator, wan.topology, net::NetConfig{}, rngs);
  transport::SimTransport transport(simulator, network);
  // Unknown source host.
  EXPECT_THROW(MultiSourceNode(transport, HostId{0}, {HostId{9}},
                               wan.topology.host_ids(), Config{}, rngs),
               std::invalid_argument);
  // Duplicate sources.
  EXPECT_THROW(MultiSourceNode(transport, HostId{0}, {HostId{0}, HostId{0}},
                               wan.topology.host_ids(), Config{}, rngs),
               std::invalid_argument);
  // Empty source list.
  EXPECT_THROW(MultiSourceNode(transport, HostId{0}, {},
                               wan.topology.host_ids(), Config{}, rngs),
               std::invalid_argument);
  // A rejected construction leaves nothing attached.
  EXPECT_NO_THROW(MultiSourceNode(transport, HostId{0}, {HostId{0}},
                                  wan.topology.host_ids(), Config{}, rngs));
}

TEST(MultiSource, TotalDeliveriesAggregatesStreams) {
  Fixture f({HostId{0}, HostId{1}});
  f.node(0).broadcast("x");
  f.node(1).broadcast("y");
  f.run_for(sim::seconds(20));
  // Each host delivered one message on each of the two streams.
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(f.node(h).total_deliveries(), 2u) << h;
  }
}

}  // namespace
}  // namespace rbcast::core
