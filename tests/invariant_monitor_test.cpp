// InvariantMonitor tests: the read-only contract (protocol digest is
// byte-identical with the monitor on or off), zero violations on healthy
// scenarios, and detection of engineered liveness failures.
#include "harness/invariant_monitor.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast {
namespace {

using harness::Experiment;
using harness::ScenarioOptions;
using rbcast::testing::fast_config;

topo::Topology small_wan(std::uint64_t seed, int clusters = 2, int hpc = 2) {
  topo::ClusteredWanOptions wan;
  wan.clusters = clusters;
  wan.hosts_per_cluster = hpc;
  wan.seed = seed;
  return make_clustered_wan(wan).topology;
}

// The determinism gate: enabling the monitor must not perturb the protocol
// in any way. Same seed, same faults — the event digests must match
// exactly whether the monitor observes the run or not.
TEST(InvariantMonitor, DigestUnchangedWhenMonitorEnabled) {
  auto run_digest = [](bool monitored) {
    ScenarioOptions options;
    options.protocol = fast_config();
    options.seed = 17;
    options.monitor_invariants = monitored;
    Experiment e(small_wan(17), options);
    e.faults().host_crash_window(HostId{3}, sim::seconds(4), sim::seconds(12));
    if (monitored) {
      e.monitor()->set_faults_quiet_at(sim::seconds(12));
    }
    e.start();
    e.broadcast_stream(6, sim::milliseconds(500), sim::seconds(1));
    e.run_for(sim::seconds(40));
    return e.events().digest();
  };
  EXPECT_EQ(run_digest(false), run_digest(true));
}

TEST(InvariantMonitor, CleanScenarioReportsNoViolations) {
  ScenarioOptions options;
  options.protocol = fast_config();
  options.seed = 3;
  options.monitor_invariants = true;
  options.monitor.orphan_limit = sim::seconds(10);
  options.monitor.converge_deadline = sim::seconds(15);
  Experiment e(small_wan(3, /*clusters=*/3, /*hpc=*/2), options);
  e.monitor()->set_faults_quiet_at(sim::TimePoint{0});  // fault-free run
  e.start();
  e.broadcast_stream(5, sim::milliseconds(500), sim::seconds(1));
  e.run_until(sim::seconds(25));
  e.monitor()->finish();
  EXPECT_TRUE(e.monitor()->ok())
      << e.monitor()->violations()[0].invariant << ": "
      << e.monitor()->violations()[0].description;
  EXPECT_GT(e.monitor()->sweeps_run(), 0u);
  EXPECT_EQ(e.monitor()->dropped_violations(), 0u);
}

// A host crashed through the entire judged window: quiescence is declared
// (deliberately prematurely) at t=5, the anchor broadcast fires at t=6, and
// the victim stays dead until after the run ends — both the orphan bound
// (C2) and the convergence deadline (C3) must fire.
TEST(InvariantMonitor, DetectsPersistentOrphanAndMissedConvergence) {
  ScenarioOptions options;
  options.protocol = fast_config();
  options.seed = 5;
  options.monitor_invariants = true;
  options.monitor.orphan_limit = sim::seconds(3);
  options.monitor.converge_deadline = sim::seconds(6);
  Experiment e(small_wan(5), options);
  e.faults().host_crash_window(HostId{3}, sim::seconds(2), sim::seconds(30));
  e.monitor()->set_faults_quiet_at(sim::seconds(5));
  e.start();
  e.broadcast_stream(3, sim::milliseconds(500), sim::seconds(1));
  e.schedule_broadcast_at(sim::seconds(6));  // post-"quiescence" anchor
  e.run_until(sim::seconds(20));
  e.monitor()->finish();

  ASSERT_FALSE(e.monitor()->ok());
  bool saw_c2 = false;
  bool saw_c3 = false;
  for (const auto& v : e.monitor()->violations()) {
    if (v.invariant == harness::kOrphanBound) saw_c2 = true;
    if (v.invariant == harness::kConvergeDeadline) saw_c3 = true;
    // Safety must stay clean: the crash loses messages, it does not forge,
    // duplicate or corrupt them.
    EXPECT_NE(v.invariant[0], 'I') << v.description;
  }
  EXPECT_TRUE(saw_c2);
  EXPECT_TRUE(saw_c3);
}

// Liveness stays disarmed without a quiescence point: the same doomed
// scenario reports nothing when set_faults_quiet_at was never called.
TEST(InvariantMonitor, LivenessRequiresQuiescencePoint) {
  ScenarioOptions options;
  options.protocol = fast_config();
  options.seed = 5;
  options.monitor_invariants = true;
  options.monitor.orphan_limit = sim::seconds(3);
  options.monitor.converge_deadline = sim::seconds(6);
  Experiment e(small_wan(5), options);
  e.faults().host_crash_window(HostId{3}, sim::seconds(2), sim::seconds(30));
  e.start();
  e.broadcast_stream(3, sim::milliseconds(500), sim::seconds(1));
  e.run_until(sim::seconds(20));
  e.monitor()->finish();
  EXPECT_TRUE(e.monitor()->ok());
}

// Without a post-quiescence broadcast the C2/C3 clock never starts: the
// attachment rules only re-form the tree when new information flows, so
// judging a quiescent stream would be a false positive by construction.
TEST(InvariantMonitor, LivenessRequiresPostQuiescenceBroadcast) {
  ScenarioOptions options;
  options.protocol = fast_config();
  options.seed = 5;
  options.monitor_invariants = true;
  options.monitor.orphan_limit = sim::seconds(3);
  options.monitor.converge_deadline = sim::seconds(6);
  Experiment e(small_wan(5), options);
  e.faults().host_crash_window(HostId{3}, sim::seconds(2), sim::seconds(30));
  e.monitor()->set_faults_quiet_at(sim::seconds(5));
  e.start();
  // Whole stream finishes before the quiescence point: no anchor.
  e.broadcast_stream(3, sim::milliseconds(500), sim::seconds(1));
  e.run_until(sim::seconds(20));
  e.monitor()->finish();
  EXPECT_TRUE(e.monitor()->ok());
}

TEST(ContainmentReport, ContainedMeansNoCorruptionPastDirectEdges) {
  harness::ContainmentReport r;
  // No adversary, nothing corrupted: trivially contained.
  EXPECT_TRUE(r.contained());

  r.byzantine = {HostId{2}};
  r.corrupted_hosts = {HostId{3}};
  r.max_hops = 1;
  r.hosts_by_hops = {{1, 1}};
  // Direct neighbors of a liar may see bad frames; that is the best any
  // defense at the receiver can do.
  EXPECT_TRUE(r.contained());

  r.corrupted_hosts.insert(HostId{5});
  r.max_hops = 2;
  r.hosts_by_hops[2] = 1;
  EXPECT_FALSE(r.contained());
}

TEST(ContainmentReport, ToStringListsEveryField) {
  harness::ContainmentReport r;
  r.byzantine = {HostId{1}, HostId{8}};
  r.corrupted_hosts = {HostId{3}};
  r.max_hops = 2;
  r.hosts_by_hops = {{2, 1}};
  r.invariants = {"I2", "I3"};
  EXPECT_EQ(to_string(r),
            "byzantine={1,8} corrupted={3} max_hops=2 by_hops={2:1} "
            "invariants=[I2,I3] contained=no");
}

}  // namespace
}  // namespace rbcast
