// Property-based (parameterized) tests: protocol invariants that must hold
// across seeds, topology shapes and fault intensities.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>

#include "harness/experiment.h"
#include "model/checker.h"
#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast {
namespace {

using harness::Experiment;
using harness::ScenarioOptions;
using rbcast::testing::fast_config;

// --- protocol invariants across seeds x topologies -----------------------

struct ScenarioParam {
  std::uint64_t seed;
  int clusters;
  int hosts_per_cluster;
  topo::TrunkShape shape;
  double trunk_loss;
};

class ProtocolProperties : public ::testing::TestWithParam<ScenarioParam> {};

TEST_P(ProtocolProperties, EventualExactlyOnceDeliveryAndConvergence) {
  const ScenarioParam p = GetParam();
  topo::ClusteredWanOptions wan;
  wan.clusters = p.clusters;
  wan.hosts_per_cluster = p.hosts_per_cluster;
  wan.shape = p.shape;
  wan.expensive.loss_probability = p.trunk_loss;
  wan.seed = p.seed;

  ScenarioOptions options;
  options.protocol = fast_config();
  options.seed = p.seed;
  // The online monitor rides along (safety invariants only — no faults are
  // declared quiet); it must stay silent across every seed and shape.
  options.monitor_invariants = true;
  Experiment e(make_clustered_wan(wan).topology, options);
  e.start();
  e.broadcast_stream(8, sim::milliseconds(500), sim::seconds(1));
  e.run_until_delivered(sim::seconds(600));

  // P1: eventual delivery of the whole stream at every host.
  ASSERT_TRUE(e.all_delivered());

  // P2: exactly-once delivery to the application.
  for (HostId h : e.topology().host_ids()) {
    EXPECT_EQ(e.host(h).counters().deliveries, 8u) << h;
  }

  // P3: at quiescence without partitions, no cycles persist and the parent
  // graph forms a tree rooted at the source that induces a cluster tree.
  e.run_for(sim::seconds(60));  // generous settling time
  const auto report = e.convergence();
  EXPECT_TRUE(report.acyclic) << report.detail;
  EXPECT_TRUE(report.tree_rooted_at_source) << report.detail;
  EXPECT_TRUE(report.induces_cluster_tree) << report.detail;

  // P4: INFO dominance along edges — no host is ahead of its parent.
  for (HostId h : e.topology().host_ids()) {
    const HostId parent = e.host(h).parent();
    if (!parent.valid()) continue;
    EXPECT_LE(e.host(h).info().max_seq(), e.host(parent).info().max_seq());
  }

  // P5: the online monitor confirmed I1-I5 at every sweep.
  e.monitor()->finish();
  EXPECT_TRUE(e.monitor()->ok())
      << e.monitor()->violations()[0].invariant << ": "
      << e.monitor()->violations()[0].description;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, ProtocolProperties,
    ::testing::Values(
        ScenarioParam{1, 2, 2, topo::TrunkShape::kLine, 0.0},
        ScenarioParam{2, 3, 2, topo::TrunkShape::kRing, 0.0},
        ScenarioParam{3, 4, 1, topo::TrunkShape::kStar, 0.0},
        ScenarioParam{4, 3, 3, topo::TrunkShape::kRandomTree, 0.0},
        ScenarioParam{5, 2, 2, topo::TrunkShape::kLine, 0.2},
        ScenarioParam{6, 3, 2, topo::TrunkShape::kRing, 0.2},
        ScenarioParam{7, 2, 4, topo::TrunkShape::kLine, 0.1},
        ScenarioParam{8, 5, 1, topo::TrunkShape::kRing, 0.1}));

// --- recovery after random flapping ------------------------------------

class FlappingRecovery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlappingRecovery, StreamCompletesOnceFaultsStop) {
  const std::uint64_t seed = GetParam();
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 2;
  wan.shape = topo::TrunkShape::kRing;  // redundancy so flaps rarely partition
  wan.seed = seed;
  const auto built = make_clustered_wan(wan);

  ScenarioOptions options;
  options.protocol = fast_config();
  options.seed = seed;
  Experiment e(built.topology, options);
  e.faults().flapping(built.trunks, sim::seconds(8), sim::seconds(4),
                      sim::seconds(60), e.rngs());
  e.start();
  e.broadcast_stream(10, sim::seconds(1), sim::seconds(1));
  e.run_until_delivered(sim::seconds(600));
  EXPECT_TRUE(e.all_delivered());

  for (HostId h : e.topology().host_ids()) {
    EXPECT_EQ(e.host(h).counters().deliveries, 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlappingRecovery,
                         ::testing::Values(11u, 22u, 33u, 44u));

// --- crash and rejoin ---------------------------------------------------

class CrashRejoin : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashRejoin, CrashedHostCatchesUpAfterReboot) {
  const std::uint64_t seed = GetParam();
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 3;
  wan.intra_cluster_ring = true;
  wan.seed = seed;
  const auto built = make_clustered_wan(wan);

  ScenarioOptions options;
  options.protocol = fast_config();
  options.seed = seed;
  // Full monitoring: faults are quiet after the crash window, the t=30
  // broadcast anchors the liveness clock, and C2/C3 are judged before the
  // final convergence assertions below.
  options.monitor_invariants = true;
  options.monitor.orphan_limit = sim::seconds(30);
  options.monitor.converge_deadline = sim::seconds(45);
  Experiment e(built.topology, options);
  // Crash a non-source host for most of the stream (its access link dies:
  // the paper's host-crash model, Section 2).
  const HostId victim{4};
  e.faults().host_crash_window(victim, sim::seconds(3), sim::seconds(25));
  e.monitor()->set_faults_quiet_at(sim::seconds(27));
  e.start();
  e.broadcast_stream(20, sim::seconds(1), sim::seconds(1));
  e.schedule_broadcast_at(sim::seconds(30));
  e.run_until_delivered(sim::seconds(400));

  // P1: the victim eventually holds everything, exactly once.
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(e.host(victim).counters().deliveries, 21u);
  // P2: the rest of the system never stalled on the crash — they were
  // complete well before the victim (sanity: their parent timeouts
  // affected only edges through the victim).
  for (HostId h : e.topology().host_ids()) {
    EXPECT_EQ(e.host(h).counters().deliveries, 21u) << h;
  }
  // P3: the graph re-converges to a proper tree afterwards, and the
  // monitor's sweeps (through the C2/C3 deadlines) saw nothing.
  e.run_until(sim::seconds(90));
  const auto report = e.convergence();
  EXPECT_TRUE(report.tree_rooted_at_source) << report.detail;
  e.monitor()->finish();
  EXPECT_TRUE(e.monitor()->ok())
      << e.monitor()->violations()[0].invariant << ": "
      << e.monitor()->violations()[0].description;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRejoin,
                         ::testing::Values(61u, 62u, 63u));

// --- ordered delivery under faults ------------------------------------

class OrderedDeliveryProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OrderedDeliveryProperty, FifoReleaseDespiteLossAndReordering) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 2;
  wan.expensive.loss_probability = 0.25;
  wan.expensive.duplication_probability = 0.1;
  wan.seed = GetParam();

  harness::ScenarioOptions options;
  options.protocol = fast_config();
  options.ordered_delivery = true;
  options.net.jitter_max = sim::milliseconds(10);
  options.seed = GetParam();
  harness::Experiment e(make_clustered_wan(wan).topology, options);
  e.start();
  e.broadcast_stream(12, sim::milliseconds(300), sim::seconds(1));
  e.run_until_delivered(sim::seconds(600));
  ASSERT_TRUE(e.all_delivered());

  for (HostId h : e.topology().host_ids()) {
    if (h == e.source()) continue;
    auto& adapter = e.ordered_adapter(h);
    EXPECT_EQ(adapter.released(), 12u) << h;
    EXPECT_EQ(adapter.next_expected(), 13u) << h;
    EXPECT_EQ(adapter.buffered(), 0u) << h;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedDeliveryProperty,
                         ::testing::Values(51u, 52u, 53u));

// --- model-checker sweep over cluster layouts -----------------------------

struct ModelParam {
  int hosts;
  std::vector<int> clusters;
};

class ModelSafetyProperty : public ::testing::TestWithParam<ModelParam> {};

TEST_P(ModelSafetyProperty, BoundedExplorationIsClean) {
  const ModelParam p = GetParam();
  model::ModelConfig config;
  config.hosts = p.hosts;
  config.cluster_of = p.clusters;
  config.max_broadcasts = 2;
  config.max_inflight = 3;
  model::Checker checker(config);
  const auto report = checker.explore_bfs(/*max_depth=*/5,
                                          /*max_states=*/100000);
  EXPECT_TRUE(report.clean())
      << report.violations[0].invariant << ": "
      << report.violations[0].description;
  // And a burst of deeper random schedules.
  const auto walks = checker.explore_random(100, 150, p.hosts * 1000u);
  EXPECT_TRUE(walks.clean());
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ModelSafetyProperty,
    ::testing::Values(ModelParam{2, {0, 0}}, ModelParam{2, {0, 1}},
                      ModelParam{3, {0, 0, 1}}, ModelParam{3, {0, 1, 2}},
                      ModelParam{4, {0, 0, 1, 1}}));

// --- SeqSet differential property with the full operation mix -----------

class SeqSetOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeqSetOps, MatchesReferenceUnderInsertMergePrune) {
  std::mt19937_64 rng(GetParam());
  util::SeqSet ours;
  util::SeqSet other;
  std::set<util::Seq> ref_ours;
  std::set<util::Seq> ref_other;
  util::Seq watermark = 0;

  auto ref_contains = [&](const std::set<util::Seq>& ref, util::Seq q) {
    return q <= watermark || ref.contains(q);
  };

  for (int op = 0; op < 600; ++op) {
    switch (rng() % 5) {
      case 0:
      case 1: {
        const util::Seq q = 1 + rng() % 80;
        if (q > watermark) {
          ours.insert(q);
          ref_ours.insert(q);
        }
        break;
      }
      case 2: {
        const util::Seq q = 1 + rng() % 80;
        if (q > watermark) {
          other.insert(q);
          ref_other.insert(q);
        }
        break;
      }
      case 3: {
        ours.merge(other);
        ref_ours.insert(ref_other.begin(), ref_other.end());
        break;
      }
      case 4: {
        // Prune both to a common watermark (models the safe prefix).
        const util::Seq w = watermark + rng() % 3;
        ours.prune_below(w);
        other.prune_below(w);
        watermark = std::max(watermark, w);
        break;
      }
    }
    // Containment agrees everywhere.
    for (util::Seq q = 1; q <= 82; ++q) {
      ASSERT_EQ(ours.contains(q), ref_contains(ref_ours, q))
          << "op=" << op << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqSetOps,
                         ::testing::Values(100u, 200u, 300u, 400u, 500u));

}  // namespace
}  // namespace rbcast
