#include "core/host_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace rbcast::core {
namespace {

std::set<HostId> as_set(const HostState::MemberSet& members) {
  return {members.begin(), members.end()};
}

std::vector<HostId> hosts(int n) {
  std::vector<HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(HostId{i});
  return out;
}

TEST(HostState, InitialConditionsMatchThePaper) {
  HostState s(HostId{2}, hosts(4));
  // "in the beginning each host assumes that it is in a cluster by itself"
  EXPECT_EQ(as_set(s.cluster()), (std::set<HostId>{HostId{2}}));
  EXPECT_FALSE(s.parent().valid());
  EXPECT_TRUE(s.info().empty());
  EXPECT_TRUE(s.children().empty());
}

TEST(HostState, RecordMessageStoresBodyOnce) {
  HostState s(HostId{0}, hosts(2));
  EXPECT_TRUE(s.record_message(3, "payload"));
  EXPECT_FALSE(s.record_message(3, "other"));
  ASSERT_NE(s.body_of(3), nullptr);
  EXPECT_EQ(*s.body_of(3), "payload");
  EXPECT_EQ(s.body_of(1), nullptr);
  EXPECT_TRUE(s.has_message(3));
}

TEST(HostState, MapOfSelfIsInfo) {
  HostState s(HostId{0}, hosts(2));
  s.record_message(1, "a");
  EXPECT_EQ(&s.map(HostId{0}), &s.info());
}

TEST(HostState, LearnInfoMergesMonotonically) {
  HostState s(HostId{0}, hosts(3));
  s.learn_info(HostId{1}, SeqSet::of({1, 2}));
  s.learn_info(HostId{1}, SeqSet::of({4}));
  EXPECT_EQ(s.map(HostId{1}).count(), 3u);
  EXPECT_EQ(s.map(HostId{1}).max_seq(), 4u);
  // Self-learning is ignored.
  s.learn_info(HostId{0}, SeqSet::of({9}));
  EXPECT_TRUE(s.info().empty());
}

TEST(HostState, LearnHasInsertsSingleSeq) {
  HostState s(HostId{0}, hosts(2));
  s.learn_has(HostId{1}, 7);
  EXPECT_TRUE(s.map(HostId{1}).contains(7));
}

TEST(HostState, UnknownHostMapIsEmpty) {
  HostState s(HostId{0}, hosts(4));
  EXPECT_TRUE(s.map(HostId{2}).empty());
  // Still so once another peer has been heard from; the parent reads NIL.
  s.learn_info(HostId{1}, SeqSet::contiguous(3));
  s.learn_parent(HostId{1}, HostId{2});
  for (HostId unheard : {HostId{2}, HostId{3}}) {
    EXPECT_TRUE(s.map(unheard).empty()) << unheard;
    EXPECT_FALSE(s.parent_of(unheard).valid()) << unheard;
  }
  // Non-members read the same way.
  for (HostId outsider : {HostId{7}, kNoHost}) {
    EXPECT_TRUE(s.map(outsider).empty()) << outsider;
    EXPECT_FALSE(s.parent_of(outsider).valid()) << outsider;
  }
}

TEST(HostState, CostBitRuleUpdatesCluster) {
  HostState s(HostId{0}, hosts(3));
  // Cheap delivery adds.
  s.update_cluster_from_cost_bit(HostId{1}, /*expensive=*/false);
  EXPECT_TRUE(s.in_cluster(HostId{1}));
  // Expensive delivery removes.
  s.update_cluster_from_cost_bit(HostId{1}, /*expensive=*/true);
  EXPECT_FALSE(s.in_cluster(HostId{1}));
  // Self never changes.
  s.update_cluster_from_cost_bit(HostId{0}, true);
  EXPECT_TRUE(s.in_cluster(HostId{0}));
}

TEST(HostState, SetClusterAlwaysIncludesSelf) {
  HostState s(HostId{0}, hosts(3));
  s.set_cluster({HostId{1}, HostId{2}});
  EXPECT_TRUE(s.in_cluster(HostId{0}));
  EXPECT_TRUE(s.in_cluster(HostId{1}));
}

TEST(HostState, ParentViewsAndOwnParent) {
  HostState s(HostId{0}, hosts(4));
  EXPECT_FALSE(s.parent_of(HostId{1}).valid());  // unknown -> NIL
  s.learn_parent(HostId{1}, HostId{2});
  EXPECT_EQ(s.parent_of(HostId{1}), HostId{2});
  s.set_parent(HostId{3});
  EXPECT_EQ(s.parent(), HostId{3});
  EXPECT_EQ(s.parent_of(HostId{0}), HostId{3});  // p_i[i] is own parent
  // learn_parent about self is ignored (own pointer is authoritative).
  s.learn_parent(HostId{0}, HostId{1});
  EXPECT_EQ(s.parent(), HostId{3});
}

TEST(HostState, ChildrenSetOperations) {
  HostState s(HostId{0}, hosts(4));
  s.add_child(HostId{1});
  s.add_child(HostId{1});
  s.add_child(HostId{0});  // self is never a child
  EXPECT_EQ(s.children().size(), 1u);
  EXPECT_TRUE(s.is_child(HostId{1}));
  s.remove_child(HostId{1});
  EXPECT_TRUE(s.children().empty());
}

std::vector<HostId> neighbors(const HostState& s) {
  std::vector<HostId> out;
  s.for_each_neighbor([&](HostId n) { out.push_back(n); });
  return out;
}

TEST(HostState, NeighborsAreChildrenPlusParent) {
  HostState s(HostId{0}, hosts(5));
  s.add_child(HostId{2});
  s.add_child(HostId{1});
  EXPECT_EQ(neighbors(s), (std::vector<HostId>{HostId{1}, HostId{2}}));
  // Children in ascending id order, then the parent.
  s.set_parent(HostId{4});
  s.add_child(HostId{3});
  EXPECT_EQ(neighbors(s), (std::vector<HostId>{HostId{1}, HostId{2},
                                               HostId{3}, HostId{4}}));
  // Parent that is also listed as child is not duplicated.
  s.add_child(HostId{4});
  EXPECT_EQ(neighbors(s).size(), 4u);
}

TEST(HostState, AncestorWalkFollowsParentViews) {
  HostState s(HostId{0}, hosts(5));
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{3});
  HostState::AncestorWalk walk;
  s.ancestors_of_self(walk);
  EXPECT_FALSE(walk.cycle);
  EXPECT_EQ(walk.ancestors,
            (std::vector<HostId>{HostId{1}, HostId{2}, HostId{3}}));
}

TEST(HostState, AncestorWalkDetectsCycleThroughSelf) {
  HostState s(HostId{0}, hosts(4));
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{0});  // back to self
  HostState::AncestorWalk walk;
  s.ancestors_of_self(walk);
  EXPECT_TRUE(walk.cycle);
  EXPECT_EQ(walk.ancestors, (std::vector<HostId>{HostId{1}, HostId{2}}));
}

TEST(HostState, AncestorWalkToleratesForeignCycle) {
  // A stale view can contain a cycle that does not include self; the walk
  // must terminate without reporting a self-cycle.
  HostState s(HostId{0}, hosts(4));
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{1});
  HostState::AncestorWalk walk;
  s.ancestors_of_self(walk);
  EXPECT_FALSE(walk.cycle);
  EXPECT_EQ(walk.ancestors, (std::vector<HostId>{HostId{1}, HostId{2}}));
}

TEST(HostState, AncestorWalkRefillsTheCallersBuffer) {
  HostState s(HostId{0}, hosts(5));
  s.set_parent(HostId{1});
  s.learn_parent(HostId{1}, HostId{2});
  s.learn_parent(HostId{2}, HostId{0});
  HostState::AncestorWalk walk;
  s.ancestors_of_self(walk);
  ASSERT_TRUE(walk.cycle);
  const HostId* buffer = walk.ancestors.data();
  // A shorter, acyclic chain replaces the old one in the same storage.
  s.learn_parent(HostId{1}, kNoHost);
  s.ancestors_of_self(walk);
  EXPECT_FALSE(walk.cycle);
  EXPECT_EQ(walk.ancestors, (std::vector<HostId>{HostId{1}}));
  EXPECT_EQ(walk.ancestors.data(), buffer);
}

TEST(HostState, SafePrefixIsMinOverAllHosts) {
  HostState s(HostId{0}, hosts(3));
  for (Seq q = 1; q <= 5; ++q) s.record_message(q, "b");
  EXPECT_EQ(s.safe_prefix(), 0u);  // nothing known about hosts 1, 2
  s.learn_info(HostId{1}, SeqSet::contiguous(4));
  EXPECT_EQ(s.safe_prefix(), 0u);  // still nothing about host 2
  s.learn_info(HostId{2}, SeqSet::contiguous(5));
  EXPECT_EQ(s.safe_prefix(), 4u);  // min(5, 4, 5)
}

TEST(HostState, SafePrefixIgnoresHolesAboveThePrefix) {
  HostState s(HostId{0}, hosts(2));
  s.record_message(1, "b");
  s.record_message(3, "b");
  s.learn_info(HostId{1}, SeqSet::of({1, 2, 3}));
  EXPECT_EQ(s.safe_prefix(), 1u);  // own hole at 2
}

TEST(HostState, PruneDropsBodiesButKeepsContainment) {
  HostState s(HostId{0}, hosts(1));
  for (Seq q = 1; q <= 10; ++q) s.record_message(q, "b");
  s.prune(7);
  EXPECT_EQ(s.body_of(7), nullptr);
  ASSERT_NE(s.body_of(8), nullptr);
  EXPECT_TRUE(s.has_message(7));
  EXPECT_EQ(s.info().max_seq(), 10u);
}

// The flat body store against a std::map model, over 20,000 random
// operations: in-order receipts (some skipping ahead, leaving holes), late
// gap fills and duplicates below the maximum, a forged far seq near 2^39,
// and prunes at random watermarks. After every operation the store agrees
// with the model on record_message()'s verdict, on body_of() and stored()
// for the touched seq, its neighbors and a random probe, and on the stored
// messages read in ascending order.
TEST(HostState, BodyStoreMatchesAnOrderedMapModel) {
  struct Entry {
    std::string body;
    std::optional<AuthTag> auth;
  };
  HostState s(HostId{0}, hosts(3));
  std::map<Seq, Entry> model;
  Seq watermark = 0;
  Seq next = 1;  // the next in-order seq
  constexpr Seq kFar = Seq{1} << 39;
  util::Rng rng(20261019);
  const auto check = [&](Seq probe, int op) {
    const auto it = model.find(probe);
    const HostState::StoredMessage* stored = s.stored(probe);
    ASSERT_EQ(stored != nullptr, it != model.end()) << "op " << op;
    ASSERT_EQ(s.body_of(probe) != nullptr, it != model.end()) << "op " << op;
    if (stored == nullptr) return;
    ASSERT_EQ(stored->seq, probe) << "op " << op;
    ASSERT_EQ(stored->body, it->second.body) << "op " << op;
    ASSERT_EQ(stored->auth, it->second.auth) << "op " << op;
    ASSERT_EQ(s.body_of(probe), &stored->body) << "op " << op;
  };
  for (int op = 0; op < 20000; ++op) {
    const auto roll = rng.uniform_int(0, 99);
    Seq seq = 0;
    if (roll < 45) {  // in order, sometimes skipping ahead
      seq = next;
      next += static_cast<Seq>(1 + rng.uniform_int(0, 2));
    } else if (roll < 85) {  // a gap fill or a duplicate, maybe pruned
      seq = static_cast<Seq>(
          rng.uniform_int(1, static_cast<std::int64_t>(next)));
    } else if (roll < 87) {  // forged far seqs
      seq = kFar + static_cast<Seq>(rng.uniform_int(0, 3));
    } else {  // prune at a random watermark, possibly below the current one
      const auto w = static_cast<Seq>(
          rng.uniform_int(0, static_cast<std::int64_t>(next)));
      s.prune(w);
      watermark = std::max(watermark, w);
      model.erase(model.begin(), model.upper_bound(w));
      ASSERT_EQ(s.info().prune_watermark(), watermark) << "op " << op;
      seq = w;
    }
    if (roll < 87) {
      Entry entry{"b" + std::to_string(seq) + "/" + std::to_string(op),
                  std::nullopt};
      if (rng.uniform_int(0, 1) == 0) {
        entry.auth = AuthTag{seq, static_cast<std::uint64_t>(op)};
      }
      const bool fresh = seq > watermark && !model.contains(seq);
      ASSERT_EQ(s.record_message(seq, entry.body, entry.auth), fresh)
          << "op " << op << " seq " << seq;
      if (fresh) model.emplace(seq, std::move(entry));
      ASSERT_TRUE(s.has_message(seq)) << "op " << op;
    }
    for (Seq probe : {seq - 1, seq, seq + 1, kFar}) check(probe, op);
    check(static_cast<Seq>(
              rng.uniform_int(0, static_cast<std::int64_t>(next) + 2)),
          op);
    const std::span<const HostState::StoredMessage> stored =
        s.stored_messages();
    ASSERT_EQ(stored.size(), model.size()) << "op " << op;
    auto it = model.begin();
    for (const HostState::StoredMessage& m : stored) {
      ASSERT_EQ(m.seq, it->first) << "op " << op;
      ASSERT_EQ(m.body, it->second.body) << "op " << op;
      ++it;
    }
  }
  // A prune past the far seqs empties the store.
  s.prune(kFar + 4);
  EXPECT_TRUE(s.stored_messages().empty());
  EXPECT_EQ(s.stored(kFar), nullptr);
}

TEST(HostState, OrderIsHostIdValueWithSourcePromotedToMaximum) {
  HostState s(HostId{0}, hosts(6), HostId{2});
  EXPECT_LT(s.order(HostId{1}), s.order(HostId{5}));
  // The broadcast source outranks every peer: leader consolidation
  // (attachment option (2)) must converge toward the permanent root.
  EXPECT_LT(s.order(HostId{5}), s.order(HostId{2}));
}

TEST(HostState, RejectsSelfNotInAllHosts) {
  EXPECT_THROW(HostState(HostId{9}, hosts(3)), std::invalid_argument);
}

TEST(HostState, SlotIsRankAmongSortedMembers) {
  // Ids are arbitrary and may arrive unsorted or repeated; slots are ranks.
  HostState s(HostId{5},
              {HostId{9}, HostId{5}, HostId{2000000000}, HostId{2}, HostId{9}});
  EXPECT_EQ(s.all_hosts(), (std::vector<HostId>{HostId{2}, HostId{5}, HostId{9},
                                                HostId{2000000000}}));
  EXPECT_EQ(s.slot(HostId{2}), 0u);
  EXPECT_EQ(s.slot(HostId{5}), 1u);
  EXPECT_EQ(s.slot(HostId{9}), 2u);
  EXPECT_EQ(s.slot(HostId{2000000000}), 3u);
  for (HostId outsider : {HostId{0}, HostId{3}, HostId{10}, HostId{2000000001},
                          kNoHost}) {
    EXPECT_EQ(s.slot(outsider), HostState::npos) << outsider;
  }
}

TEST(HostState, SlotOfDenseIdsIsTheId) {
  const HostState s(HostId{3}, hosts(6));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(s.slot(HostId{i}), std::size_t(i));
  for (HostId outsider : {HostId{6}, HostId{-2}, kNoHost,
                          HostId{std::numeric_limits<std::int32_t>::min()},
                          HostId{std::numeric_limits<std::int32_t>::max()}}) {
    EXPECT_EQ(s.slot(outsider), HostState::npos) << outsider;
  }
}

TEST(HostState, SlotOfSparseIdsIsTheirRank) {
  // Id 7 as a guess would index past the end; 2000000000 far past it. Id 0
  // is its own rank, so it takes the direct path.
  const HostState s(HostId{7}, {HostId{0}, HostId{7}, HostId{2000000000}});
  EXPECT_EQ(s.slot(HostId{0}), 0u);
  EXPECT_EQ(s.slot(HostId{7}), 1u);
  EXPECT_EQ(s.slot(HostId{2000000000}), 2u);
  for (HostId outsider : {HostId{1}, HostId{2}, HostId{6}, HostId{8},
                          HostId{1999999999}, kNoHost, HostId{-7}}) {
    EXPECT_EQ(s.slot(outsider), HostState::npos) << outsider;
  }
}

TEST(HostState, SlotWhereAnIdIndexesAnotherMember) {
  // Id 2 read as a slot lands on member 4; the guess is checked, not
  // trusted.
  const HostState s(HostId{4}, {HostId{4}, HostId{1}, HostId{1}, HostId{9},
                                HostId{0}, HostId{4}});
  EXPECT_EQ(s.all_hosts(),
            (std::vector<HostId>{HostId{0}, HostId{1}, HostId{4}, HostId{9}}));
  EXPECT_EQ(s.slot(HostId{0}), 0u);
  EXPECT_EQ(s.slot(HostId{1}), 1u);
  EXPECT_EQ(s.slot(HostId{4}), 2u);
  EXPECT_EQ(s.slot(HostId{9}), 3u);
  for (HostId outsider : {HostId{2}, HostId{3}, HostId{5}, kNoHost}) {
    EXPECT_EQ(s.slot(outsider), HostState::npos) << outsider;
  }
}

TEST(HostState, NonMemberMembershipQueriesReadFalse) {
  HostState s(HostId{0}, hosts(3));
  s.add_child(HostId{1});
  s.update_cluster_from_cost_bit(HostId{2}, /*expensive=*/false);
  for (HostId outsider : {HostId{3}, HostId{2000000000}, kNoHost}) {
    EXPECT_FALSE(s.in_cluster(outsider)) << outsider;
    EXPECT_FALSE(s.is_child(outsider)) << outsider;
    EXPECT_FALSE(s.cluster().contains(outsider)) << outsider;
    EXPECT_FALSE(s.children().contains(outsider)) << outsider;
    s.remove_child(outsider);  // nothing to remove
  }
  EXPECT_EQ(as_set(s.cluster()), (std::set<HostId>{HostId{0}, HostId{2}}));
  EXPECT_EQ(as_set(s.children()), (std::set<HostId>{HostId{1}}));
}

TEST(HostState, NonMemberMutatorsThrowAndChangeNothing) {
  HostState s(HostId{0}, hosts(4));
  s.add_child(HostId{1});
  s.update_cluster_from_cost_bit(HostId{2}, /*expensive=*/false);
  const std::set<HostId> cluster_before = as_set(s.cluster());
  const std::set<HostId> children_before = as_set(s.children());
  for (HostId outsider : {HostId{4}, HostId{2000000000}, kNoHost}) {
    EXPECT_THROW(s.add_child(outsider), std::invalid_argument) << outsider;
    EXPECT_THROW(s.update_cluster_from_cost_bit(outsider, false),
                 std::invalid_argument)
        << outsider;
    EXPECT_THROW(s.update_cluster_from_cost_bit(outsider, true),
                 std::invalid_argument)
        << outsider;
    // One bad entry rejects the whole set, members included.
    EXPECT_THROW(s.set_cluster({HostId{3}, outsider}), std::invalid_argument)
        << outsider;
  }
  EXPECT_EQ(as_set(s.cluster()), cluster_before);
  EXPECT_EQ(as_set(s.children()), children_before);
  EXPECT_EQ(s.cluster().size(), 2u);
  EXPECT_EQ(s.children().size(), 1u);
}

// CLUSTER_i and CHILDREN_i against a std::set model, over dense and sparse
// ids: after every one of 20,000 random operations the two agree on
// membership, size, ascending iteration and the parent-graph neighbor
// order.
void run_membership_differential(std::vector<HostId> members,
                                 std::uint64_t seed) {
  const HostId self = members[members.size() / 2];
  HostState s(self, members);
  std::set<HostId> cluster{self};
  std::set<HostId> children;
  util::Rng rng(seed);
  const auto pick = [&] {
    return members[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(members.size()) - 1))];
  };
  for (int op = 0; op < 20000; ++op) {
    const HostId j = rng.uniform_int(0, 9) == 0 ? self : pick();
    switch (rng.uniform_int(0, 6)) {
      case 0:  // cheap cost bit
        s.update_cluster_from_cost_bit(j, /*expensive=*/false);
        cluster.insert(j);
        break;
      case 1:  // expensive cost bit
        s.update_cluster_from_cost_bit(j, /*expensive=*/true);
        if (j != self) cluster.erase(j);
        break;
      case 2:
        s.add_child(j);
        if (j != self) children.insert(j);
        break;
      case 3:
        s.remove_child(j);
        children.erase(j);
        break;
      case 4: {  // static cluster knowledge
        std::vector<HostId> seeded;
        const auto count = rng.uniform_int(0, 4);
        for (std::int64_t k = 0; k < count; ++k) seeded.push_back(pick());
        s.set_cluster(seeded);
        cluster = {seeded.begin(), seeded.end()};
        cluster.insert(self);
        break;
      }
      default:  // a new parent, or NIL
        s.set_parent(rng.uniform_int(0, 3) == 0 ? kNoHost : j);
        break;
    }
    ASSERT_EQ(as_set(s.cluster()), cluster) << "op " << op;
    ASSERT_EQ(as_set(s.children()), children) << "op " << op;
    ASSERT_EQ(s.cluster().size(), cluster.size()) << "op " << op;
    ASSERT_EQ(s.children().size(), children.size()) << "op " << op;
    ASSERT_EQ(s.children().empty(), children.empty()) << "op " << op;
    const std::vector<HostId> in_order(s.cluster().begin(), s.cluster().end());
    ASSERT_EQ(in_order, std::vector<HostId>(cluster.begin(), cluster.end()))
        << "op " << op;
    for (HostId h : members) {
      ASSERT_EQ(s.in_cluster(h), cluster.contains(h)) << "op " << op;
      ASSERT_EQ(s.cluster().contains(h), cluster.contains(h)) << "op " << op;
      ASSERT_EQ(s.is_child(h), children.contains(h)) << "op " << op;
      ASSERT_EQ(s.children().contains(h), children.contains(h))
          << "op " << op;
    }
    std::vector<HostId> expected(children.begin(), children.end());
    if (s.parent().valid() && !children.contains(s.parent())) {
      expected.push_back(s.parent());
    }
    ASSERT_EQ(neighbors(s), expected) << "op " << op;
  }
}

TEST(HostState, MembershipMatchesAnOrderedSetModelOnDenseIds) {
  run_membership_differential(hosts(12), 20260901);
}

TEST(HostState, MembershipMatchesAnOrderedSetModelOnSparseIds) {
  run_membership_differential({HostId{0}, HostId{3}, HostId{4}, HostId{7},
                               HostId{40}, HostId{41}, HostId{1000},
                               HostId{2000000000}},
                              20260902);
}

TEST(HostState, ClearingTheChildUnderAnIteratorKeepsTheWalk) {
  HostState s(HostId{0}, hosts(6));
  for (int i = 1; i < 6; ++i) s.add_child(HostId{i});
  std::vector<HostId> seen;
  for (HostId child : s.children()) {
    seen.push_back(child);
    if (child.value % 2 == 1) s.remove_child(child);
  }
  EXPECT_EQ(seen, (std::vector<HostId>{HostId{1}, HostId{2}, HostId{3},
                                       HostId{4}, HostId{5}}));
  EXPECT_EQ(as_set(s.children()), (std::set<HostId>{HostId{2}, HostId{4}}));
}

TEST(HostState, LearningAboutNonMemberThrows) {
  HostState s(HostId{0}, hosts(3));
  for (HostId outsider : {HostId{3}, HostId{2000000000}, kNoHost}) {
    EXPECT_THROW(s.learn_info(outsider, SeqSet::contiguous(2)),
                 std::invalid_argument);
    EXPECT_THROW(s.learn_has(outsider, 1), std::invalid_argument);
    EXPECT_THROW(s.learn_parent(outsider, HostId{1}), std::invalid_argument);
  }
  // Nothing was recorded for anyone.
  for (HostId h : hosts(3)) {
    EXPECT_TRUE(s.map(h).empty()) << h;
    EXPECT_FALSE(s.parent_of(h).valid()) << h;
  }
}

}  // namespace
}  // namespace rbcast::core
