// Tests for the formal-model layer: the model itself, the checker, the
// checker's ability to catch injected bugs, and bounded verification runs
// of the real protocol rules.
#include "model/checker.h"

#include <gtest/gtest.h>

namespace rbcast::model {
namespace {

ModelConfig two_hosts() {
  ModelConfig config;
  config.hosts = 2;
  config.cluster_of = {0, 1};
  config.max_broadcasts = 2;
  config.max_inflight = 3;
  return config;
}

ModelConfig three_hosts_triangle() {
  // The Figure 4.1 shape: three single-host clusters.
  ModelConfig config;
  config.hosts = 3;
  config.cluster_of = {0, 1, 2};
  config.max_broadcasts = 2;
  config.max_inflight = 3;
  return config;
}

ModelConfig three_hosts_one_cluster() {
  ModelConfig config;
  config.hosts = 3;
  config.cluster_of = {0, 0, 0};
  config.max_broadcasts = 2;
  config.max_inflight = 3;
  return config;
}

// --- model mechanics -----------------------------------------------------

TEST(Model, InitialStateMatchesPaperInitialConditions) {
  Checker checker(two_hosts());
  const SystemState init = checker.initial_state();
  ASSERT_EQ(init.nodes.size(), 2u);
  for (const auto& node : init.nodes) {
    EXPECT_TRUE(node.state().info().empty());
    EXPECT_FALSE(node.state().parent().valid());
    EXPECT_EQ(node.state().cluster().size(), 1u);  // {self}
  }
  EXPECT_TRUE(init.inflight.empty());
}

TEST(Model, BroadcastTransitionGeneratesMessage) {
  Checker checker(two_hosts());
  const SystemState init = checker.initial_state();
  const auto next = checker.successors(init);
  // At minimum: the broadcast transition and info exchanges exist.
  bool found_broadcast = false;
  for (const auto& [kind, description, state] : next) {
    if (description == "broadcast#1") {
      found_broadcast = true;
      EXPECT_EQ(kind, TransitionKind::kBroadcast);
      EXPECT_EQ(state.broadcasts_done, 1);
      EXPECT_EQ(state.nodes[0].state().info().max_seq(), 1u);
      // No children yet: nothing in flight from the broadcast itself.
    }
  }
  EXPECT_TRUE(found_broadcast);
}

TEST(Model, FingerprintDistinguishesStates) {
  Checker checker(two_hosts());
  const SystemState init = checker.initial_state();
  const auto next = checker.successors(init);
  ASSERT_FALSE(next.empty());
  for (const auto& [kind, description, state] : next) {
    EXPECT_NE(state.fingerprint(), init.fingerprint()) << description;
  }
}

TEST(Model, FingerprintIsOrderInsensitiveForInflight) {
  Checker checker(two_hosts());
  SystemState a = checker.initial_state();
  SystemState b = checker.initial_state();
  ModelMessage m1{HostId{0}, HostId{1},
                  core::ProtocolMessage{core::DetachNotice{}}};
  ModelMessage m2{HostId{1}, HostId{0},
                  core::ProtocolMessage{core::DetachNotice{}}};
  a.inflight = {m1, m2};
  b.inflight = {m2, m1};
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// --- bounded verification of the real rules ---------------------------------

TEST(Model, ExhaustiveTwoHostsIsSafe) {
  Checker checker(two_hosts());
  const auto report = checker.explore_bfs(/*max_depth=*/14,
                                          /*max_states=*/200000);
  ASSERT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
  EXPECT_GT(report.states_explored, 20000u);
}

TEST(Model, ExhaustiveTriangleIsSafe) {
  Checker checker(three_hosts_triangle());
  const auto report = checker.explore_bfs(/*max_depth=*/7,
                                          /*max_states=*/150000);
  ASSERT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
  EXPECT_GT(report.states_explored, 3000u);
}

TEST(Model, ExhaustiveSingleClusterIsSafe) {
  Checker checker(three_hosts_one_cluster());
  const auto report = checker.explore_bfs(/*max_depth=*/5,
                                          /*max_states=*/150000);
  EXPECT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
}

TEST(Model, RandomWalksAreSafeDeepIntoTheRun) {
  Checker checker(three_hosts_triangle());
  const auto report =
      checker.explore_random(/*walks=*/300, /*steps=*/120, /*seed=*/99);
  EXPECT_TRUE(report.clean()) << report.violations[0].invariant << ": "
                              << report.violations[0].description;
  EXPECT_GT(report.transitions_fired, 10000u);
}

// --- liveness under fair scheduling ----------------------------------------

TEST(Model, FairWalksReachFullDissemination) {
  Checker checker(three_hosts_triangle());
  const auto report =
      checker.explore_liveness(/*walks=*/60, /*max_steps=*/400, /*seed=*/3);
  EXPECT_TRUE(report.clean());
  // Under fair scheduling, the vast majority of runs disseminate fully.
  EXPECT_GE(report.completed, 50) << "only " << report.completed << "/"
                                  << report.walks << " walks completed";
  EXPECT_GT(report.mean_steps_to_complete, 0.0);
}

TEST(Model, FairWalksCompleteInSingleClusterToo) {
  Checker checker(three_hosts_one_cluster());
  const auto report =
      checker.explore_liveness(/*walks=*/60, /*max_steps=*/400, /*seed=*/4);
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.completed, 50);
}

// --- checker self-tests (mutation testing) ------------------------------

TEST(Model, CheckerCatchesDoubleDeliveryMutant) {
  ModelConfig config = two_hosts();
  config.mutant_double_delivery = true;
  Checker checker(config);
  const auto report =
      checker.explore_random(/*walks=*/500, /*steps=*/100, /*seed=*/5);
  ASSERT_FALSE(report.clean())
      << "the checker failed to catch an injected exactly-once bug";
  EXPECT_EQ(report.violations[0].invariant, "I1");
  // A violation carries a reproducible trace.
  EXPECT_FALSE(report.violations[0].trace.empty());
}

TEST(Model, AcceptFromAnyoneMutantIsStillSafe) {
  // Documenting a real insight: the acceptance rule (new maxima only from
  // the parent) is *not* needed for safety — dropping it keeps
  // exactly-once and integrity intact. The paper needs it for the
  // structural/liveness argument (cycle handling, Section 4.3), not for
  // safety.
  ModelConfig config = three_hosts_triangle();
  config.mutant_accept_from_anyone = true;
  Checker checker(config);
  const auto report = checker.explore_bfs(/*max_depth=*/5,
                                          /*max_states=*/150000);
  EXPECT_TRUE(report.clean());
}

TEST(Model, RejectsBadConfiguration) {
  ModelConfig config;
  config.hosts = 3;
  config.cluster_of = {0, 0};  // wrong size
  EXPECT_THROW(Checker{config}, std::invalid_argument);
}

}  // namespace
}  // namespace rbcast::model
