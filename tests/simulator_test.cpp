#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace rbcast::sim {
namespace {

TEST(Simulator, ClockAdvancesToRunUntilTarget) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  s.run_until(100);
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, EventsSeeTheirOwnTime) {
  Simulator s;
  TimePoint seen = -1;
  s.at(40, [&] { seen = s.now(); });
  s.run_until(100);
  EXPECT_EQ(seen, 40);
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator s;
  s.run_until(10);
  TimePoint seen = -1;
  s.after(5, [&] { seen = s.now(); });
  s.run_until(20);
  EXPECT_EQ(seen, 15);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  std::vector<TimePoint> fired;
  s.at(10, [&] {
    fired.push_back(s.now());
    s.after(10, [&] { fired.push_back(s.now()); });
  });
  s.run_until(100);
  EXPECT_EQ(fired, (std::vector<TimePoint>{10, 20}));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  bool at_boundary = false;
  bool beyond = false;
  s.at(50, [&] { at_boundary = true; });
  s.at(51, [&] { beyond = true; });
  s.run_until(50);
  EXPECT_TRUE(at_boundary);
  EXPECT_FALSE(beyond);
}

TEST(Simulator, CancelPending) {
  Simulator s;
  bool fired = false;
  const EventId id = s.at(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_until(20);
  EXPECT_FALSE(fired);
}

TEST(Simulator, StepFiresOneEvent) {
  Simulator s;
  int count = 0;
  s.at(1, [&] { ++count; });
  s.at(2, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunToCompletionDrainsEverything) {
  Simulator s;
  int count = 0;
  s.at(5, [&] {
    ++count;
    s.after(5, [&] { ++count; });
  });
  s.run_to_completion();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(PeriodicTask, FiresEveryPeriod) {
  Simulator s;
  std::vector<TimePoint> fired;
  PeriodicTask task(s, 10, [&] { fired.push_back(s.now()); });
  task.start(3);
  s.run_until(45);
  EXPECT_EQ(fired, (std::vector<TimePoint>{3, 13, 23, 33, 43}));
}

TEST(PeriodicTask, StopHalts) {
  Simulator s;
  int count = 0;
  PeriodicTask task(s, 10, [&] { ++count; });
  task.start(0);
  s.run_until(25);
  task.stop();
  s.run_until(100);
  EXPECT_EQ(count, 3);  // t = 0, 10, 20
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, ActionMayStopItsOwnTask) {
  Simulator s;
  int count = 0;
  PeriodicTask task(s, 10, [&] {
    ++count;
    if (count == 2) task.stop();
  });
  task.start(0);
  s.run_until(100);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, DestructionCancelsPending) {
  Simulator s;
  int count = 0;
  {
    PeriodicTask task(s, 10, [&] { ++count; });
    task.start(5);
  }
  s.run_until(100);
  EXPECT_EQ(count, 0);
}

TEST(PeriodicTask, RejectsBadArguments) {
  Simulator s;
  EXPECT_THROW(PeriodicTask(s, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicTask(s, 10, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace rbcast::sim
