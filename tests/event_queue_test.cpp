#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace rbcast::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(10, [] {});
  q.pop().action();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopReturnsScheduledTime) {
  EventQueue q;
  q.schedule(42, [] {});
  EXPECT_EQ(q.pop().time, 42);
}

TEST(EventQueue, CompactionBoundsBackingStoreUnderChurn) {
  // The cancel-and-rearm pattern of the protocol's timers must not grow
  // the backing store without bound: tombstones are compacted away once
  // they outnumber live entries (above a small floor).
  EventQueue q;
  constexpr int kLive = 16;
  std::vector<EventId> ids;
  for (int i = 0; i < kLive; ++i) {
    ids.push_back(q.schedule(1000 + i, [] {}));
  }
  for (int round = 0; round < 10000; ++round) {
    const std::size_t slot = static_cast<std::size_t>(round % kLive);
    ASSERT_TRUE(q.cancel(ids[slot]));
    ids[slot] = q.schedule(1000 + round, [] {});
    EXPECT_EQ(q.size(), static_cast<std::size_t>(kLive));
    // size - live <= max(live, floor) at all times after maybe_compact.
    EXPECT_LE(q.backing_size(), 2u * std::max<std::size_t>(kLive, 64));
  }
  // Draining still fires exactly the live timers, in time order.
  int fired = 0;
  TimePoint last = -1;
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GE(f.time, last);
    last = f.time;
    ++fired;
  }
  EXPECT_EQ(fired, kLive);
}

TEST(EventQueue, CompactionPreservesFifoAmongSimultaneousEvents) {
  // Force a compaction between scheduling same-time events and draining:
  // the FIFO tie-break (sequence numbers) must survive the heap rebuild.
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 64; ++i) {
    q.schedule(7, [&fired, i] { fired.push_back(i); });
  }
  std::vector<EventId> victims;
  for (int i = 0; i < 200; ++i) victims.push_back(q.schedule(9, [] {}));
  for (EventId id : victims) q.cancel(id);  // triggers compaction
  EXPECT_LT(q.backing_size(), 264u);
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 100; i += 2) q.cancel(ids[static_cast<size_t>(i)]);
  int fired = 0;
  TimePoint last = -1;
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GT(f.time, last);
    last = f.time;
    ++fired;
  }
  EXPECT_EQ(fired, 50);
}

TEST(EventQueue, StaleIdCannotCancelSlotsNextOccupant) {
  // The cancelled event's slot is reused by the next schedule; the old
  // handle must not reach the new occupant.
  EventQueue q;
  bool fired = false;
  const EventId stale = q.schedule(10, [] {});
  ASSERT_TRUE(q.cancel(stale));
  const EventId fresh = q.schedule(20, [&] { fired = true; });
  EXPECT_EQ(q.slot_capacity(), 1u);  // same slot
  EXPECT_NE(fresh, stale);
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelAfterFireReturnsFalseOnceSlotIsReused) {
  EventQueue q;
  bool fired = false;
  const EventId done = q.schedule(10, [] {});
  q.pop().action();
  q.schedule(20, [&] { fired = true; });
  EXPECT_EQ(q.slot_capacity(), 1u);
  EXPECT_FALSE(q.cancel(done));
  ASSERT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, SimultaneousEventsStayFifoAcrossSlotReuse) {
  // Free slots in scrambled order, then schedule same-time events into
  // them: the later-scheduled events sit in lower slots, but firing order
  // must follow scheduling order, not slot order.
  EventQueue q;
  std::vector<EventId> filler;
  for (int i = 0; i < 8; ++i) filler.push_back(q.schedule(100, [] {}));
  for (int i : {5, 1, 6, 2, 7, 3}) {
    ASSERT_TRUE(q.cancel(filler[static_cast<std::size_t>(i)]));
  }
  std::vector<int> fired;
  for (int i = 0; i < 6; ++i) {
    q.schedule(5, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(q.slot_capacity(), 8u);  // all six landed in freed slots
  while (q.next_time() == 5) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, NeverIssuesTheNullId) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{0}));
  for (int round = 0; round < 1000; ++round) {
    const EventId id = q.schedule(round, [] {});
    EXPECT_TRUE(id.valid());
    if (round % 3 == 0) {
      q.cancel(id);
    } else {
      q.pop();
    }
  }
  EXPECT_FALSE(q.cancel(EventId{0}));
}

TEST(EventQueue, ChurnRecyclesSlots) {
  // Timers disarmed and re-armed far in the future, next to a stream of
  // near events that fire and are replaced: the slot vector stays at the
  // peak live count and the heap at most twice that (above the compaction
  // floor), however many events pass through.
  EventQueue q;
  constexpr int kEach = 16;
  constexpr TimePoint kFar = 1'000'000;
  std::vector<EventId> timers;
  for (int i = 0; i < kEach; ++i) {
    timers.push_back(q.schedule(kFar + i, [] {}));
    q.schedule(i, [] {});
  }
  TimePoint t = kEach;
  for (int round = 0; round < 20000; ++round) {
    const auto k = static_cast<std::size_t>(round % kEach);
    ASSERT_TRUE(q.cancel(timers[k]));
    timers[k] = q.schedule(kFar + round, [] {});
    ASSERT_LT(q.pop().time, kFar);
    q.schedule(++t, [] {});
    ASSERT_EQ(q.size(), 2u * kEach);
    EXPECT_EQ(q.slot_capacity(), 2u * kEach);
    EXPECT_LE(q.backing_size(), 2u * std::max<std::size_t>(2 * kEach, 64));
  }
}

TEST(EventQueue, ScheduleEarlierThanTheLastPopIsOrderedFirst) {
  // A bare queue may be handed a time before the last one it fired, both
  // when drained and while later events are still pending.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(100, [&] { fired.push_back(100); });
  q.pop().action();
  q.schedule(50, [&] { fired.push_back(50); });  // after a drain
  q.schedule(200, [&] { fired.push_back(200); });
  q.pop().action();
  q.schedule(120, [&] { fired.push_back(120); });  // 200 still pending
  q.schedule(10, [&] { fired.push_back(10); });
  q.schedule(120, [&] { fired.push_back(121); });
  EXPECT_EQ(q.next_time(), 10);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{100, 50, 10, 120, 121, 200}));
}

// Differential test against an ordered-set model of (time, schedule
// order). Every pop's time and action, every cancel() result and every
// next_time() must match the model. The schedules mix near times, a pool
// of shared "hot" times that later schedules join from other buckets,
// offsets spread log-uniformly over [0, 2^40], a far class near 2^62, and
// times earlier than the last pop, both while events are pending and
// after a drain.
TEST(EventQueue, RandomOperationsMatchAnOrderedSetModel) {
  std::mt19937_64 rng(21);
  EventQueue q;
  struct Issued {
    EventId id;
    TimePoint time;
  };
  std::vector<Issued> issued;
  std::set<std::pair<TimePoint, std::size_t>> model;  // (time, issue order)
  std::size_t fired = 0;
  TimePoint last_pop = 0;
  std::array<TimePoint, 8> hot{};
  for (TimePoint& t : hot) t = 1 + static_cast<TimePoint>(rng() % 1000);
  // Cancels by the bucket their entry would occupy relative to the last
  // pop: 0 for at or before it, else the bit width of the key difference.
  std::array<int, 65> cancels_by_bucket{};
  const auto bucket = [&last_pop](TimePoint t) {
    if (t <= last_pop) return 0;
    const auto key = [](TimePoint x) {
      return static_cast<std::uint64_t>(x) ^ (std::uint64_t{1} << 63);
    };
    return static_cast<int>(std::bit_width(key(t) ^ key(last_pop)));
  };

  const auto schedule = [&](TimePoint t) {
    const std::size_t index = issued.size();
    issued.push_back({q.schedule(t, [&fired, index] { fired = index; }), t});
    model.emplace(t, index);
  };
  const auto pop = [&] {
    ASSERT_EQ(q.next_time(), model.begin()->first);
    EventQueue::Fired f = q.pop();
    ASSERT_EQ(f.time, model.begin()->first);
    f.action();
    ASSERT_EQ(fired, model.begin()->second);
    last_pop = f.time;
    model.erase(model.begin());
  };

  constexpr int kOps = 200000;
  int drains = 0;
  int early_after_drain = 0;
  int early_while_pending = 0;
  for (int op = 0; op < kOps; ++op) {
    const auto r = rng() % 100;
    if (r < 38 && model.size() < 4000) {
      TimePoint t = last_pop;
      switch (rng() % 6) {
        case 0:
          t += static_cast<TimePoint>(rng() % 16);
          break;
        case 1: {
          TimePoint& h = hot[rng() % hot.size()];
          if (h < last_pop) {
            h = last_pop + static_cast<TimePoint>(
                               rng() % (std::uint64_t{1} << (rng() % 24)));
          }
          t = h;
          break;
        }
        case 2:
        case 3:
          t += static_cast<TimePoint>(
              rng() % ((std::uint64_t{1} << (rng() % 41)) + 1));
          break;
        case 4:
          t = (TimePoint{1} << 62) + static_cast<TimePoint>(rng() % 64);
          break;
        default:
          t -= static_cast<TimePoint>(rng() % 1000);
          if (t < last_pop) {
            ++(model.empty() ? early_after_drain : early_while_pending);
          }
          break;
      }
      schedule(t);
    } else if (r < 62) {
      // Mostly recent handles (usually live), sometimes any handle ever
      // issued (usually fired or cancelled already).
      const std::size_t n = issued.size();
      if (n == 0) continue;
      const std::size_t index =
          rng() % 8 == 0 ? rng() % n
                         : n - 1 - rng() % std::min<std::size_t>(n, 512);
      const Issued& e = issued[index];
      const bool live = model.erase({e.time, index}) == 1;
      const TimePoint t = e.time;
      ASSERT_EQ(q.cancel(e.id), live) << "op " << op;
      if (live) ++cancels_by_bucket[static_cast<std::size_t>(bucket(t))];
    } else if (r < 95) {
      if (!model.empty()) pop();
    } else if (r < 99) {
      if (!model.empty()) {
        ASSERT_EQ(q.next_time(), model.begin()->first);
      }
    } else {
      while (!model.empty()) pop();
      ++drains;
    }
    ASSERT_EQ(q.size(), model.size()) << "op " << op;
    ASSERT_EQ(q.backing_size(), q.size());
    if (HasFatalFailure()) return;
  }
  while (!model.empty()) pop();
  EXPECT_TRUE(q.empty());

  EXPECT_GT(drains, 100);
  EXPECT_GT(early_after_drain, 50);
  EXPECT_GT(early_while_pending, 1000);
  for (std::size_t b = 0; b <= 41; ++b) {
    EXPECT_GT(cancels_by_bucket[b], 0) << "no cancel in bucket " << b;
  }
  EXPECT_GT(cancels_by_bucket[63], 0) << "no cancel in the far bucket";
}

}  // namespace
}  // namespace rbcast::sim
