#include "trace/dot_export.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast::trace {
namespace {

using rbcast::testing::fast_config;

harness::ScenarioOptions fast_options() {
  harness::ScenarioOptions options;
  options.protocol = fast_config();
  options.protocol.data_bytes = 32;
  return options;
}

TEST(DotExport, ParentGraphContainsAllHostsAndEdges) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 2;
  harness::Experiment e(make_clustered_wan(wan).topology, fast_options());
  e.start();
  e.broadcast();
  e.run_for(sim::seconds(20));

  const std::string dot =
      parent_graph_dot(e.host_views(), e.network(), e.source());
  EXPECT_NE(dot.find("digraph parent_graph"), std::string::npos);
  for (int h = 0; h < 4; ++h) {
    EXPECT_NE(dot.find("h" + std::to_string(h) + " "), std::string::npos)
        << "missing node h" << h;
  }
  // The source is marked.
  EXPECT_NE(dot.find("(source)"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=gold"), std::string::npos);
  // Two ground-truth clusters appear as subgraphs.
  EXPECT_NE(dot.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_1"), std::string::npos);
  // At least one parent edge exists after convergence.
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(DotExport, CrossClusterEdgesAreDashed) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 1;
  harness::Experiment e(make_clustered_wan(wan).topology, fast_options());
  e.start();
  e.broadcast();
  e.run_for(sim::seconds(20));

  // h1's parent must be h0 (other cluster): a dashed red edge.
  ASSERT_EQ(e.host(HostId{1}).parent(), HostId{0});
  const std::string dot =
      parent_graph_dot(e.host_views(), e.network(), e.source());
  EXPECT_NE(dot.find("h1 -> h0 [style=dashed, color=red]"),
            std::string::npos);
}

TEST(DotExport, TopologyListsServersHostsAndTrunks) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 2;
  const auto built = make_clustered_wan(wan);
  harness::Experiment e(built.topology, fast_options());

  const std::string dot = topology_dot(e.network());
  EXPECT_NE(dot.find("graph topology"), std::string::npos);
  EXPECT_NE(dot.find("s0 [shape=circle]"), std::string::npos);
  EXPECT_NE(dot.find("h0 [shape=box]"), std::string::npos);
  // The expensive trunk renders dashed.
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(DotExport, DownLinksAreHighlighted) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 1;
  const auto built = make_clustered_wan(wan);
  harness::Experiment e(built.topology, fast_options());
  e.network().set_link_up(built.trunks[0], false);

  const std::string dot = topology_dot(e.network());
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(DotExport, RejectsEmptyHostList) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 1;
  wan.hosts_per_cluster = 1;
  harness::Experiment e(make_clustered_wan(wan).topology, fast_options());
  std::vector<const core::BroadcastHost*> empty;
  EXPECT_THROW(parent_graph_dot(empty, e.network(), e.source()),
               std::invalid_argument);
}

}  // namespace
}  // namespace rbcast::trace
