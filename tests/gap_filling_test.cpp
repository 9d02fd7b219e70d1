#include "core/gap_filling.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace rbcast::core {
namespace {

std::vector<HostId> hosts(int n) {
  std::vector<HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(HostId{i});
  return out;
}

HostState with_messages(int self, int n, Seq upto) {
  HostState s(HostId{self}, hosts(n));
  for (Seq q = 1; q <= upto; ++q) s.record_message(q, "b" + std::to_string(q));
  return s;
}

TEST(GapFilling, AttachBackfillSendsEverythingMissing) {
  HostState s = with_messages(0, 2, 5);
  const SeqSet child_info = SeqSet::of({2, 4});
  EXPECT_EQ(plan_attach_backfill(s, child_info, 100),
            (std::vector<Seq>{1, 3, 5}));
}

TEST(GapFilling, AttachBackfillHonorsBurstLimit) {
  HostState s = with_messages(0, 2, 10);
  EXPECT_EQ(plan_attach_backfill(s, SeqSet{}, 3).size(), 3u);
}

TEST(GapFilling, AttachBackfillForCaughtUpChildIsEmpty) {
  HostState s = with_messages(0, 2, 5);
  EXPECT_TRUE(plan_attach_backfill(s, SeqSet::contiguous(5), 100).empty());
}

TEST(GapFilling, ChildPlanMayRaiseChildMax) {
  HostState s = with_messages(0, 2, 5);
  s.learn_info(HostId{1}, SeqSet::of({1, 2, 3}));
  // Child: new maxima 4, 5 may be pushed (we are its parent).
  EXPECT_EQ(plan_neighbor_gapfill(s, HostId{1}, /*j_is_child=*/true, 100),
            (std::vector<Seq>{4, 5}));
}

TEST(GapFilling, ParentPlanIsCappedAtParentMax) {
  HostState s = with_messages(0, 2, 5);
  // Our parent somehow lags: it has {1,3} (max 3). We may only offer 2 —
  // anything above its max would be rejected as a non-parent new-max.
  s.learn_info(HostId{1}, SeqSet::of({1, 3}));
  EXPECT_EQ(plan_neighbor_gapfill(s, HostId{1}, /*j_is_child=*/false, 100),
            (std::vector<Seq>{2}));
}

TEST(GapFilling, FarPlanIsCappedAndNeedsKnownInfo) {
  HostState s = with_messages(0, 3, 6);
  // Never heard from host 1: nothing is offered.
  EXPECT_TRUE(plan_far_gapfill(s, HostId{1}, 100).empty());
  // Host 2 has holes below its max.
  s.learn_info(HostId{2}, SeqSet::of({1, 4}));
  EXPECT_EQ(plan_far_gapfill(s, HostId{2}, 100), (std::vector<Seq>{2, 3}));
}

TEST(GapFilling, FarPlanHonorsBurst) {
  HostState s = with_messages(0, 2, 10);
  s.learn_info(HostId{1}, SeqSet::of({9}));
  EXPECT_EQ(plan_far_gapfill(s, HostId{1}, 2), (std::vector<Seq>{1, 2}));
}

TEST(GapFilling, PrunedBodiesAreNeverOffered) {
  HostState s = with_messages(0, 2, 6);
  s.prune(3);  // bodies 1..3 gone
  s.learn_info(HostId{1}, SeqSet::of({5}));
  // Missing below 5 are {1,2,3,4}; only 4 still has a body.
  EXPECT_EQ(plan_far_gapfill(s, HostId{1}, 100), (std::vector<Seq>{4}));
}

TEST(GapFilling, NothingPlannedWhenPeerIsAhead) {
  HostState s = with_messages(0, 2, 2);
  s.learn_info(HostId{1}, SeqSet::contiguous(9));
  EXPECT_TRUE(plan_neighbor_gapfill(s, HostId{1}, true, 100).empty());
  EXPECT_TRUE(plan_far_gapfill(s, HostId{1}, 100).empty());
}

// The Figure 4.1 kernel: i has {1,3}, j has {2,3}. Neither may raise the
// other's max, yet each can fill the other's hole.
TEST(GapFilling, Figure41MutualFillWorksDespiteEqualMaxima) {
  HostState i(HostId{0}, hosts(2));
  i.record_message(1, "m1");
  i.record_message(3, "m3");
  i.learn_info(HostId{1}, SeqSet::of({2, 3}));

  HostState j(HostId{1}, hosts(2));
  j.record_message(2, "m2");
  j.record_message(3, "m3");
  j.learn_info(HostId{0}, SeqSet::of({1, 3}));

  EXPECT_EQ(plan_far_gapfill(i, HostId{1}, 100), (std::vector<Seq>{1}));
  EXPECT_EQ(plan_far_gapfill(j, HostId{0}, 100), (std::vector<Seq>{2}));
}

TEST(GapFilling, OfferedSeqsAreSkippedWithinTheBurst) {
  HostState s = with_messages(0, 2, 8);
  s.learn_info(HostId{1}, SeqSet::of({8}));
  const std::vector<Seq> offered = {2, 3, 6};
  EXPECT_EQ(plan_far_gapfill(s, HostId{1}, 3, offered),
            (std::vector<Seq>{1, 4, 5}));
  EXPECT_EQ(plan_neighbor_gapfill(s, HostId{1}, true, 100, offered),
            (std::vector<Seq>{1, 4, 5, 7}));
  EXPECT_TRUE(plan_attach_backfill(s, SeqSet::contiguous(8), 100, offered)
                  .empty());
}

// The plan the planners made before offers became a span: fold the offers
// into a copy of the peer's MAP, then ask for what it lacks — capped at the
// peer's *actual* max when `capped`, else at our own max.
std::vector<Seq> folded_plan(const HostState& s, const SeqSet& known,
                             bool capped, std::size_t burst,
                             std::span<const Seq> offered) {
  SeqSet assumed = known;
  SeqSet offers;
  for (Seq q : offered) offers.insert(q);
  assumed.merge(offers);
  const Seq cap = capped ? known.max_seq() : s.info().max_seq();
  std::vector<Seq> plan = s.info().missing_from_capped(assumed, cap, burst);
  std::erase_if(plan, [&](Seq q) { return s.body_of(q) == nullptr; });
  return plan;
}

TEST(GapFilling, SpanPlansEqualFoldThenMissingFromPlans) {
  std::mt19937_64 rng(20);
  const auto coin = [&](int percent) {
    return static_cast<int>(rng() % 100) < percent;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // INFO: a random subset of 1..60, sometimes pruned (bodies go too).
    HostState s(HostId{0}, hosts(2));
    for (Seq q = 1; q <= 60; ++q) {
      if (coin(70)) s.record_message(q, "b" + std::to_string(q));
    }
    if (coin(30)) s.prune(rng() % 30);
    // MAP: a random subset of 1..70 above a random watermark.
    SeqSet known;
    if (coin(30)) known.prune_below(rng() % 25);
    for (Seq q = 1; q <= 70; ++q) {
      if (coin(40)) known.insert(q);
    }
    if (!known.empty()) s.learn_info(HostId{1}, known);
    // Offers: any ascending, distinct seqs, held or not.
    std::vector<Seq> offered;
    for (Seq q = 1; q <= 70; ++q) {
      if (coin(15)) offered.push_back(q);
    }
    const std::size_t bursts[] = {0, 1, 2, 5, 16, SIZE_MAX};
    const std::size_t burst = bursts[rng() % std::size(bursts)];
    const SeqSet& map = s.map(HostId{1});

    EXPECT_EQ(plan_neighbor_gapfill(s, HostId{1}, true, burst, offered),
              folded_plan(s, map, /*capped=*/false, burst, offered));
    EXPECT_EQ(plan_neighbor_gapfill(s, HostId{1}, false, burst, offered),
              folded_plan(s, map, /*capped=*/true, burst, offered));
    EXPECT_EQ(plan_far_gapfill(s, HostId{1}, burst, offered),
              map.empty() ? std::vector<Seq>{}
                          : folded_plan(s, map, /*capped=*/true, burst,
                                        offered));
    EXPECT_EQ(plan_attach_backfill(s, known, burst, offered),
              folded_plan(s, known, /*capped=*/false, burst, offered));
  }
}

}  // namespace
}  // namespace rbcast::core
