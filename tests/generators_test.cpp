#include "topo/generators.h"

#include "harness/experiment.h"
#include "support/fast_config.h"

#include <gtest/gtest.h>

namespace rbcast::topo {
namespace {

auto all_up = [](LinkId) { return true; };

TEST(Generators, ClusteredWanHasPlannedClusters) {
  ClusteredWanOptions options;
  options.clusters = 4;
  options.hosts_per_cluster = 3;
  options.shape = TrunkShape::kRing;
  const Wan wan = make_clustered_wan(options);

  EXPECT_EQ(wan.topology.host_count(), 12u);
  EXPECT_EQ(wan.cluster_hosts.size(), 4u);
  // Ground truth agrees with the plan.
  const auto actual = wan.topology.clusters(all_up);
  ASSERT_EQ(actual.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(actual[c], wan.cluster_hosts[c]);
  }
}

TEST(Generators, TrunkCountsPerShape) {
  for (auto [shape, expected] :
       {std::pair{TrunkShape::kLine, 4}, std::pair{TrunkShape::kRing, 5},
        std::pair{TrunkShape::kStar, 4}, std::pair{TrunkShape::kRandomTree, 4}}) {
    ClusteredWanOptions options;
    options.clusters = 5;
    options.hosts_per_cluster = 2;
    options.shape = shape;
    const Wan wan = make_clustered_wan(options);
    EXPECT_EQ(wan.trunks.size(), static_cast<std::size_t>(expected));
  }
}

TEST(Generators, TrunksAreExpensive) {
  ClusteredWanOptions options;
  options.clusters = 3;
  options.hosts_per_cluster = 2;
  const Wan wan = make_clustered_wan(options);
  for (LinkId l : wan.trunks) {
    EXPECT_EQ(wan.topology.link(l).link_class, LinkClass::kExpensive);
  }
}

TEST(Generators, ExtraTrunksAddPathDiversity) {
  ClusteredWanOptions base;
  base.clusters = 8;
  base.hosts_per_cluster = 1;
  base.shape = TrunkShape::kLine;
  const std::size_t baseline = make_clustered_wan(base).trunks.size();

  base.extra_trunk_fraction = 0.5;
  const std::size_t extended = make_clustered_wan(base).trunks.size();
  EXPECT_GT(extended, baseline);
}

TEST(Generators, RandomTreeIsDeterministicPerSeed) {
  ClusteredWanOptions options;
  options.clusters = 6;
  options.hosts_per_cluster = 1;
  options.shape = TrunkShape::kRandomTree;
  options.seed = 7;
  const Wan a = make_clustered_wan(options);
  const Wan b = make_clustered_wan(options);
  ASSERT_EQ(a.trunks.size(), b.trunks.size());
  for (std::size_t i = 0; i < a.trunks.size(); ++i) {
    EXPECT_EQ(a.topology.link(a.trunks[i]).a, b.topology.link(b.trunks[i]).a);
    EXPECT_EQ(a.topology.link(a.trunks[i]).b, b.topology.link(b.trunks[i]).b);
  }
}

TEST(Generators, IntraClusterRingSurvivesOneCheapLinkFailure) {
  ClusteredWanOptions options;
  options.clusters = 1;
  options.hosts_per_cluster = 4;
  options.intra_cluster_ring = true;
  const Wan wan = make_clustered_wan(options);

  // Taking down any single cheap trunk must keep the cluster whole.
  for (const LinkSpec& l : wan.topology.links()) {
    if (l.is_access || l.link_class != LinkClass::kCheap) continue;
    auto down = [&](LinkId id) { return id != l.id; };
    EXPECT_EQ(wan.topology.clusters(down).size(), 1u)
        << "cheap link " << l.id << " is a single point of failure";
  }
}

TEST(Generators, SingleClusterShortcut) {
  const Wan wan = make_single_cluster(5);
  EXPECT_EQ(wan.topology.host_count(), 5u);
  EXPECT_EQ(wan.trunks.size(), 0u);
  EXPECT_EQ(wan.topology.clusters(all_up).size(), 1u);
}

TEST(Generators, Figure31MatchesThePaper) {
  const Figure31 fig = make_figure_3_1();
  EXPECT_EQ(fig.topology.host_count(), 3u);
  EXPECT_EQ(fig.topology.server_count(), 4u);
  // s4 is a pure switch.
  EXPECT_FALSE(fig.topology.server(fig.s4).has_host);
  // Every host is its own cluster (all trunks expensive).
  EXPECT_EQ(fig.topology.clusters(all_up).size(), 3u);
  // The star through s4 is the only wiring.
  EXPECT_EQ(fig.topology.trunk_links_of(fig.s4).size(), 3u);
  EXPECT_EQ(fig.topology.trunk_links_of(fig.s1).size(), 1u);
}

TEST(Generators, Figure32HasFourClustersAndDiamondTrunks) {
  const Figure32 fig = make_figure_3_2();
  const auto clusters = fig.topology.clusters(all_up);
  ASSERT_EQ(clusters.size(), 4u);
  EXPECT_EQ(clusters[0], fig.cluster_hosts[0]);
  EXPECT_EQ(clusters[3], fig.cluster_hosts[3]);
  EXPECT_EQ(fig.cluster_hosts[3].size(), 3u);  // cluster C has three hosts
  // The source lives in cluster R.
  EXPECT_EQ(fig.cluster_hosts[0].front(), fig.source);
}

TEST(Generators, Figure41TriangleSurvivesSourceIsolation) {
  const Figure41 fig = make_figure_4_1();
  EXPECT_EQ(fig.topology.clusters(all_up).size(), 3u);
  // Cutting both links at s still leaves i and j connected.
  auto cut = [&](LinkId l) { return l != fig.trunk_si && l != fig.trunk_sj; };
  EXPECT_FALSE(fig.topology.connected(fig.s, fig.i, cut));
  EXPECT_FALSE(fig.topology.connected(fig.s, fig.j, cut));
  EXPECT_TRUE(fig.topology.connected(fig.i, fig.j, cut));
}

TEST(Generators, ArpanetShapeAndClusters) {
  const Arpanet net = make_arpanet();
  EXPECT_EQ(net.sites.size(), 20u);
  EXPECT_EQ(net.trunks.size(), 27u);
  // 5 LAN sites (3+2+2+2+2 hosts) + 7 single-host sites = 18 hosts.
  EXPECT_EQ(net.hosts.size(), 18u);
  EXPECT_EQ(net.topology.host_count(), 18u);

  // Every trunk is expensive — the historical 56 kbit/s lines.
  for (LinkId trunk : net.trunks) {
    EXPECT_EQ(net.topology.link(trunk).link_class, LinkClass::kExpensive);
  }

  // Ground truth: each LAN is one multi-host cluster; singles are alone.
  const auto clusters = net.topology.clusters(all_up);
  EXPECT_EQ(clusters.size(), 12u);  // 5 LANs + 7 singles
  std::size_t multi = 0;
  for (const auto& cluster : clusters) {
    if (cluster.size() > 1) ++multi;
  }
  EXPECT_EQ(multi, 5u);

  // Coast to coast: an MIT host can reach a UCLA host.
  EXPECT_TRUE(net.topology.connected(net.hosts_at.at("MIT").front(),
                                     net.hosts_at.at("UCLA").front(),
                                     all_up));
}

TEST(Generators, ArpanetSurvivesSingleTrunkFailures) {
  // The map has enough path diversity that no single trunk is a cut edge
  // between MIT and UCLA.
  const Arpanet net = make_arpanet();
  const HostId east = net.hosts_at.at("MIT").front();
  const HostId west = net.hosts_at.at("UCLA").front();
  for (LinkId down : net.trunks) {
    auto up = [down](LinkId l) { return l != down; };
    EXPECT_TRUE(net.topology.connected(east, west, up))
        << "trunk " << down << " is a single point of failure";
  }
}

TEST(Generators, ArpanetBroadcastsEndToEnd) {
  const Arpanet net = make_arpanet();
  harness::ScenarioOptions options;
  options.protocol = rbcast::testing::fast_config();
  // Source at MIT.
  options.source = net.hosts_at.at("MIT").front();
  harness::Experiment e(net.topology, options);
  e.start();
  e.broadcast_stream(5, sim::seconds(1), sim::seconds(1));
  e.run_until_delivered(sim::seconds(300));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Generators, RejectsDegenerateOptions) {
  ClusteredWanOptions options;
  options.clusters = 0;
  EXPECT_THROW(make_clustered_wan(options), std::invalid_argument);
  options.clusters = 2;
  options.hosts_per_cluster = 0;
  EXPECT_THROW(make_clustered_wan(options), std::invalid_argument);
}

}  // namespace
}  // namespace rbcast::topo
