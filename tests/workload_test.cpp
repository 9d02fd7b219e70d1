#include "harness/workload.h"

#include <gtest/gtest.h>

#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast::harness {
namespace {

using rbcast::testing::fast_config;

ScenarioOptions fast_options() {
  ScenarioOptions options;
  options.protocol = fast_config();
  options.protocol.data_bytes = 32;
  return options;
}

TEST(Workload, UniformSchedulesExactSpacing) {
  Experiment e(topo::make_single_cluster(2).topology, fast_options());
  e.start();
  WorkloadOptions w;
  w.process = ArrivalProcess::kUniform;
  w.messages = 5;
  w.interval = sim::seconds(2);
  w.first_at = sim::seconds(1);
  const sim::TimePoint last =
      schedule_workload(e, w, util::Rng(1));
  EXPECT_EQ(last, sim::seconds(9));  // 1, 3, 5, 7, 9

  e.run_until(sim::seconds(4));
  EXPECT_EQ(e.last_seq(), 2u);  // broadcasts at t=1 and t=3 fired
  e.run_until_delivered(sim::seconds(60));
  EXPECT_TRUE(e.all_delivered());
  EXPECT_EQ(e.last_seq(), 5u);
}

TEST(Workload, PoissonHasRoughlyTheRequestedMeanRate) {
  Experiment e(topo::make_single_cluster(2).topology, fast_options());
  e.start();
  WorkloadOptions w;
  w.process = ArrivalProcess::kPoisson;
  w.messages = 200;
  w.interval = sim::milliseconds(500);
  const sim::TimePoint last = schedule_workload(e, w, util::Rng(7));
  // 200 arrivals at mean 0.5 s: the last lands around t = 100 s +- noise.
  EXPECT_GT(last, sim::seconds(60));
  EXPECT_LT(last, sim::seconds(160));

  e.run_until_delivered(last + sim::seconds(120));
  EXPECT_TRUE(e.all_delivered());
}

TEST(Workload, BurstySchedulesBackToBackGroups) {
  Experiment e(topo::make_single_cluster(2).topology, fast_options());
  e.start();
  WorkloadOptions w;
  w.process = ArrivalProcess::kBursty;
  w.messages = 10;
  w.burst_size = 5;
  w.interval = sim::seconds(10);
  w.first_at = sim::seconds(1);
  schedule_workload(e, w, util::Rng(1));

  // After the first burst window, exactly 5 messages exist.
  e.run_until(sim::seconds(2));
  EXPECT_EQ(e.last_seq(), 5u);
  // The second burst comes ~10 s later.
  e.run_until(sim::seconds(9));
  EXPECT_EQ(e.last_seq(), 5u);
  e.run_until(sim::seconds(13));
  EXPECT_EQ(e.last_seq(), 10u);
}

TEST(Workload, AllDeliveredWaitsForScheduledWorkload) {
  Experiment e(topo::make_single_cluster(2).topology, fast_options());
  e.start();
  WorkloadOptions w;
  w.messages = 3;
  w.first_at = sim::seconds(30);
  schedule_workload(e, w, util::Rng(1));
  EXPECT_FALSE(e.all_delivered());  // nothing fired yet, but it is pending
}

TEST(Workload, RejectsBadOptions) {
  Experiment e(topo::make_single_cluster(2).topology, fast_options());
  WorkloadOptions bad;
  bad.interval = 0;
  EXPECT_THROW(schedule_workload(e, bad, util::Rng(1)),
               std::invalid_argument);
  bad.interval = 1;
  bad.burst_size = 0;
  EXPECT_THROW(schedule_workload(e, bad, util::Rng(1)),
               std::invalid_argument);
}

TEST(Workload, ProcessNames) {
  EXPECT_STREQ(to_string(ArrivalProcess::kUniform), "uniform");
  EXPECT_STREQ(to_string(ArrivalProcess::kPoisson), "poisson");
  EXPECT_STREQ(to_string(ArrivalProcess::kBursty), "bursty");
}

}  // namespace
}  // namespace rbcast::harness
