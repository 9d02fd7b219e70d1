// Convergence-probe tests: run real scenarios through the harness and
// check that analyze_convergence reports exactly what the run produced.
#include "trace/convergence.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast::trace {
namespace {

using harness::Experiment;
using harness::ScenarioOptions;
using rbcast::testing::fast_config;

TEST(Convergence, FreshSystemIsNotATree) {
  ScenarioOptions options;
  options.protocol = fast_config();
  Experiment e(topo::make_single_cluster(3).topology, options);
  const auto report = e.convergence();
  EXPECT_TRUE(report.acyclic);  // no parents at all: trivially acyclic
  EXPECT_FALSE(report.tree_rooted_at_source);  // three roots
  EXPECT_FALSE(report.induces_cluster_tree);
  EXPECT_EQ(report.leader_count, 3);
  EXPECT_EQ(report.depth, 0);
  EXPECT_EQ(report.orphans, 2);  // the parentless source is no orphan
  EXPECT_FALSE(report.detail.empty());
}

TEST(Convergence, SingleClusterConvergesToStar) {
  ScenarioOptions options;
  options.protocol = fast_config();
  Experiment e(topo::make_single_cluster(4).topology, options);
  e.start();
  e.broadcast();
  e.run_for(sim::seconds(20));

  const auto report = e.convergence();
  EXPECT_TRUE(report.acyclic) << report.detail;
  EXPECT_TRUE(report.tree_rooted_at_source) << report.detail;
  EXPECT_TRUE(report.induces_cluster_tree) << report.detail;
  EXPECT_TRUE(report.all_caught_up) << report.detail;
  EXPECT_EQ(report.leader_count, 1);  // the source leads its own cluster
  EXPECT_EQ(report.depth, 1);
  EXPECT_EQ(report.orphans, 0);
  ASSERT_EQ(report.leaders_per_cluster.size(), 1u);
  EXPECT_EQ(report.leaders_per_cluster[0], 1);
}

TEST(Convergence, MultiClusterWanInducesClusterTree) {
  topo::ClusteredWanOptions wan_options;
  wan_options.clusters = 3;
  wan_options.hosts_per_cluster = 3;
  wan_options.shape = topo::TrunkShape::kLine;
  ScenarioOptions options;
  options.protocol = fast_config();
  Experiment e(make_clustered_wan(wan_options).topology, options);
  e.start();
  // A short stream gives the attachment procedure INFO gradients to climb.
  e.broadcast_stream(5, sim::seconds(1), sim::seconds(1));
  e.run_for(sim::seconds(60));

  const auto report = e.convergence();
  EXPECT_TRUE(report.fully_converged()) << report.detail;
  EXPECT_TRUE(report.all_caught_up) << report.detail;
  EXPECT_EQ(report.leader_count, 3);  // one per cluster
  for (int leaders : report.leaders_per_cluster) EXPECT_EQ(leaders, 1);
}

TEST(Convergence, CaughtUpReflectsMissingMessages) {
  ScenarioOptions options;
  options.protocol = fast_config();
  Experiment e(topo::make_single_cluster(3).topology, options);
  e.start();
  e.broadcast();  // generated but not yet propagated anywhere
  const auto report = e.convergence();
  EXPECT_FALSE(report.all_caught_up);
}

}  // namespace
}  // namespace rbcast::trace
