// Behavioural tests of the BroadcastHost automaton over a scriptable fake
// network (no real substrate: full control over cost bits and drops).
#include "core/broadcast_host.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "support/fake_network.h"
#include "support/fast_config.h"

namespace rbcast::core {
namespace {

using rbcast::testing::FakeHub;
using rbcast::testing::hub_config;

struct Cluster {
  sim::Simulator sim;
  FakeHub hub{sim};
  std::vector<std::unique_ptr<BroadcastHost>> nodes;
  std::vector<std::vector<Seq>> delivered;

  explicit Cluster(int n, Config config = hub_config(),
                   HostId source = HostId{0}) {
    std::vector<HostId> all;
    for (int i = 0; i < n; ++i) all.push_back(HostId{i});
    delivered.resize(static_cast<std::size_t>(n));
    util::RngFactory rngs(7);
    for (int i = 0; i < n; ++i) {
      const HostId id{i};
      nodes.push_back(std::make_unique<BroadcastHost>(
          hub, id, source, all, config, rngs.stream("jitter", i),
          [this, i](Seq seq, std::string_view) {
            delivered[static_cast<std::size_t>(i)].push_back(seq);
          }));
    }
  }

  BroadcastHost& node(int i) { return *nodes[static_cast<std::size_t>(i)]; }
  void start_all() {
    for (auto& n : nodes) n->start();
  }
  void run_for(sim::Duration d) { sim.run_until(sim.now() + d); }
};

TEST(BroadcastHost, SourceDeliversLocallyOnBroadcast) {
  Cluster c(2);
  c.node(0).broadcast("m1");
  EXPECT_EQ(c.delivered[0], (std::vector<Seq>{1}));
  EXPECT_EQ(c.node(0).info().max_seq(), 1u);
  EXPECT_EQ(c.node(0).last_broadcast_seq(), 1u);
}

TEST(BroadcastHost, StreamReachesAttachedHostsAndConvergesToTree) {
  Cluster c(3);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(3));
  for (int k = 2; k <= 5; ++k) {
    c.node(0).broadcast("m" + std::to_string(k));
    c.run_for(sim::seconds(1));
  }
  c.run_for(sim::seconds(3));

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.node(i).info().count(), 5u) << "host " << i;
  }
  // All deliveries are exactly-once.
  for (int i = 0; i < 3; ++i) {
    std::vector<Seq> seen = c.delivered[static_cast<std::size_t>(i)];
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<Seq>{1, 2, 3, 4, 5}));
  }
  // The graph is a tree rooted at the source.
  EXPECT_FALSE(c.node(0).parent().valid());
  int with_parent = 0;
  for (int i = 1; i < 3; ++i) {
    if (c.node(i).parent().valid()) ++with_parent;
  }
  EXPECT_EQ(with_parent, 2);
}

TEST(BroadcastHost, NewMaxFromNonParentIsDiscarded) {
  Cluster c(3);
  // Hand-feed host 2 a data message from host 1 (not its parent).
  ProtocolMessage m{DataMsg{1, "stray", false, {}, {}}};
  net::Delivery d{.from = HostId{1},
                  .to = HostId{2},
                  .expensive = false,
                  .payload = std::any(m),
                  .bytes = 64,
                  .kind = "data",
                  .sent_at = 0,
                  .hops = 1};
  c.node(2).on_delivery(d);
  EXPECT_TRUE(c.node(2).info().empty());
  EXPECT_EQ(c.node(2).counters().new_max_rejected, 1u);
  // But the sender is now known to have it (MAP update).
  EXPECT_TRUE(c.node(2).state().map(HostId{1}).contains(1));
}

TEST(BroadcastHost, DuplicateDataIsDiscarded) {
  Cluster c(2);
  c.node(0).broadcast("m1");
  ProtocolMessage m{DataMsg{1, "m1", true, {}, {}}};
  net::Delivery d{.from = HostId{1},
                  .to = HostId{0},
                  .expensive = false,
                  .payload = std::any(m),
                  .bytes = 64,
                  .kind = "gapfill",
                  .sent_at = 0,
                  .hops = 1};
  c.node(0).on_delivery(d);
  EXPECT_EQ(c.node(0).counters().duplicates_discarded, 1u);
  EXPECT_EQ(c.delivered[0].size(), 1u);
}

TEST(BroadcastHost, GapFillAcceptedFromNonParent) {
  Cluster c(3);
  // Host 2's max is 3 (fed from its parent -- simulate by making host 1 its
  // parent first through a real handshake).
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));
  c.node(0).broadcast("m2");
  c.node(0).broadcast("m3");
  c.run_for(sim::seconds(2));
  ASSERT_EQ(c.node(2).info().max_seq(), 3u);

  // Now remove message 2 knowledge... instead feed a *below-max* message
  // from a non-parent: host 2 already has everything, so craft seq 2 as if
  // it were missing -- use a fresh host 1 delivery of an old message. To
  // keep the state consistent we test acceptance on host 1 instead if it
  // lacks nothing. Simplest: build a fresh node with a hole.
  Cluster c2(3);
  // Give host 2 max=3 via its parent (host 0 is the source and will be the
  // parent after attachment); here we inject state directly: parent must be
  // set for new-max acceptance, so simulate the hole by sending 1 and 3
  // from the parent after a real attach.
  c2.start_all();
  c2.node(0).broadcast("a1");
  c2.run_for(sim::seconds(2));  // everyone attaches and gets a1
  // Sever hub delivery from 0 to 2 while message 2 flows.
  c2.hub.set_drop(HostId{0}, HostId{2}, true);
  c2.node(0).broadcast("a2");
  c2.run_for(sim::milliseconds(20));  // in flight; drop eats host 2's copy
  c2.hub.set_drop(HostId{0}, HostId{2}, false);
  c2.node(0).broadcast("a3");
  c2.run_for(sim::seconds(5));  // gap filling must repair the hole
  EXPECT_TRUE(c2.node(2).info().contains(2));
  EXPECT_EQ(c2.node(2).info().count(), 3u);
}

TEST(BroadcastHost, AttachHandshakeSetsBothEnds) {
  Cluster c(2);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));
  EXPECT_EQ(c.node(1).parent(), HostId{0});
  EXPECT_TRUE(c.node(0).state().is_child(HostId{1}));
  EXPECT_GE(c.node(1).counters().attaches_completed, 1u);
}

TEST(BroadcastHost, AttachBackfillFillsNewChild) {
  Cluster c(2);
  c.start_all();
  // Source generates before anyone attaches.
  c.node(0).broadcast("m1");
  c.node(0).broadcast("m2");
  c.node(0).broadcast("m3");
  c.run_for(sim::seconds(3));
  // After attaching, host 1 must have received the whole backlog.
  EXPECT_EQ(c.node(1).info().count(), 3u);
}

TEST(BroadcastHost, AttachTimeoutMovesToNextCandidate) {
  Cluster c(3);
  // Host 2 knows hosts 0 and 1 are ahead; host 1 is silent (drops).
  c.hub.set_drop(HostId{2}, HostId{1}, true);
  c.node(2).on_delivery(net::Delivery{
      .from = HostId{1},
      .to = HostId{2},
      .expensive = false,
      .payload = std::any(ProtocolMessage{InfoMsg{SeqSet::contiguous(5), kNoHost}}),
      .bytes = 32,
      .kind = "info",
      .sent_at = 0,
      .hops = 1});
  c.node(2).on_delivery(net::Delivery{
      .from = HostId{0},
      .to = HostId{2},
      .expensive = false,
      .payload = std::any(ProtocolMessage{InfoMsg{SeqSet::contiguous(4), kNoHost}}),
      .bytes = 32,
      .kind = "info",
      .sent_at = 0,
      .hops = 1});
  c.node(2).run_attachment_now();  // candidate: host 1 (max 5) -> times out
  c.run_for(sim::milliseconds(500));
  EXPECT_GE(c.node(2).counters().attach_timeouts, 1u);
  EXPECT_EQ(c.node(2).parent(), HostId{0});  // fell back to next candidate
}

TEST(BroadcastHost, DestroyedMidHandshakeLeavesNoPendingTimer) {
  Cluster c(2);
  c.start_all();
  c.node(0).broadcast("m1");
  while (c.node(1).counters().attach_attempts == 0) ASSERT_TRUE(c.sim.step());
  // The request is in flight and the ack timeout armed; the destructor
  // must detach and cancel that timeout.
  c.nodes[1].reset();
  c.run_for(sim::seconds(1));
  EXPECT_TRUE(c.node(0).state().is_child(HostId{1}));
}

TEST(BroadcastHost, DetachNoticeRemovesChild) {
  Cluster c(2);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));
  ASSERT_TRUE(c.node(0).state().is_child(HostId{1}));
  c.node(0).on_delivery(net::Delivery{
      .from = HostId{1},
      .to = HostId{0},
      .expensive = false,
      .payload = std::any(ProtocolMessage{DetachNotice{}}),
      .bytes = 24,
      .kind = "detach",
      .sent_at = 0,
      .hops = 1});
  EXPECT_FALSE(c.node(0).state().is_child(HostId{1}));
}

TEST(BroadcastHost, InfoExchangeReconcilesChildren) {
  Cluster c(3);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));
  ASSERT_TRUE(c.node(0).state().is_child(HostId{1}));

  // Host 1's info claiming a different parent must evict it from host 0's
  // CHILDREN set (heals lost DetachNotice).
  c.node(0).on_delivery(net::Delivery{
      .from = HostId{1},
      .to = HostId{0},
      .expensive = false,
      .payload =
          std::any(ProtocolMessage{InfoMsg{SeqSet::contiguous(1), HostId{2}}}),
      .bytes = 32,
      .kind = "info",
      .sent_at = 0,
      .hops = 1});
  EXPECT_FALSE(c.node(0).state().is_child(HostId{1}));

  // And a claim of "you are my parent" re-adds (heals lost AttachAccept).
  c.node(0).on_delivery(net::Delivery{
      .from = HostId{1},
      .to = HostId{0},
      .expensive = false,
      .payload =
          std::any(ProtocolMessage{InfoMsg{SeqSet::contiguous(1), HostId{0}}}),
      .bytes = 32,
      .kind = "info",
      .sent_at = 0,
      .hops = 1});
  EXPECT_TRUE(c.node(0).state().is_child(HostId{1}));
}

net::Delivery hand_delivery(HostId from, HostId to, ProtocolMessage m) {
  return net::Delivery{.from = from,
                       .to = to,
                       .expensive = false,
                       .payload = std::any(std::move(m)),
                       .bytes = 32,
                       .kind = "info",
                       .sent_at = 0,
                       .hops = 1};
}

// A claimed sender outside all_hosts (or the receiver itself) must not
// join CLUSTER, get a MAP entry, or become a send target: the frame is
// dropped before any bookkeeping and counted.
TEST(BroadcastHost, DropsFramesFromNonMembers) {
  Cluster c(3);
  BroadcastHost& h = c.node(1);
  const auto cluster_view = h.state().cluster();
  const std::set<HostId> cluster_before(cluster_view.begin(),
                                        cluster_view.end());
  const std::vector<std::pair<HostId, ProtocolMessage>> forged = {
      {HostId{-1}, InfoMsg{SeqSet::contiguous(3), HostId{1}}},
      {HostId{7}, AttachRequest{SeqSet::contiguous(3)}},
      {HostId{2000000000}, DataMsg{3, "forged", true, {}, {}}},
  };
  for (const auto& [from, m] : forged) {
    h.on_delivery(hand_delivery(from, HostId{1}, m));
  }
  EXPECT_EQ(h.counters().unknown_sender, 3u);
  EXPECT_EQ(std::set<HostId>(cluster_view.begin(), cluster_view.end()),
            cluster_before);
  EXPECT_TRUE(h.state().children().empty());
  for (const auto& [from, m] : forged) {
    EXPECT_TRUE(h.state().map(from).empty()) << from;
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(h.state().map(HostId{j}).empty()) << j;
  }
  EXPECT_TRUE(h.info().empty());
  EXPECT_TRUE(c.hub.log.empty());

  // A frame claiming to come from the receiver itself is dropped too.
  h.on_delivery(
      hand_delivery(HostId{1}, HostId{1}, InfoMsg{SeqSet::contiguous(3), {}}));
  EXPECT_EQ(h.counters().unknown_sender, 4u);

  // Running the protocol afterwards never addresses a non-member.
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(5));
  for (const auto& sent : c.hub.log) {
    EXPECT_TRUE(sent.to.value >= 0 && sent.to.value < 3)
        << sent.from << " -> " << sent.to << " (" << sent.kind << ")";
  }
  EXPECT_EQ(h.info().count(), 1u);
}

// The bursts the host hands the gap-fill planners: an attach is followed
// by exactly kAttachBackfillBurst back-filled messages, and one neighbor
// round sends the next kGapfillBurst that the child still lacks.
TEST(BroadcastHost, AttachBackfillAndNeighborRoundEachSendOneBurst) {
  Cluster c(2);  // never started: only the calls below send anything
  for (int k = 1; k <= 100; ++k) c.node(0).broadcast("m" + std::to_string(k));
  ASSERT_TRUE(c.hub.log.empty());

  // The seqs of the data frames logged from entry `first` on, all to h1.
  auto data_seqs = [&c](std::size_t first) {
    std::vector<Seq> seqs;
    for (std::size_t i = first; i < c.hub.log.size(); ++i) {
      const auto& sent = c.hub.log[i];
      const auto& m = std::any_cast<const ProtocolMessage&>(sent.payload);
      if (const auto* data = std::get_if<DataMsg>(&m)) {
        EXPECT_EQ(sent.to, HostId{1});
        seqs.push_back(data->seq);
      }
    }
    return seqs;
  };
  auto seq_range = [](Seq first, Seq last) {
    std::vector<Seq> seqs;
    for (Seq seq = first; seq <= last; ++seq) seqs.push_back(seq);
    return seqs;
  };

  // An in-cluster child (cost bit 0) with an empty INFO set attaches.
  c.node(0).on_delivery(
      hand_delivery(HostId{1}, HostId{0}, AttachRequest{SeqSet{}}));
  EXPECT_EQ(c.hub.sent_count("attach_ack"), 1u);
  EXPECT_EQ(data_seqs(0), seq_range(1, kAttachBackfillBurst));

  const std::size_t after_attach = c.hub.log.size();
  c.node(0).run_gapfill_neighbor_now();
  EXPECT_EQ(data_seqs(after_attach),
            seq_range(kAttachBackfillBurst + 1,
                      kAttachBackfillBurst + kGapfillBurst));
}

// One intra-cluster round reaches exactly cluster ∪ neighbors, and one
// inter-cluster round everyone else, each in ascending id order.
TEST(BroadcastHost, InfoRoundsCoverClusterNeighborsAndEveryoneElse) {
  Config config = hub_config();
  config.cluster_knowledge = Config::ClusterKnowledge::kStatic;
  Cluster c(8, config);
  BroadcastHost& h = c.node(3);
  // Host 3 outranks its cluster peers, so it never consolidates under one.
  h.seed_cluster({HostId{1}, HostId{2}, HostId{3}});
  // Host 5 names host 3 as its parent: a child outside the cluster.
  h.on_delivery(
      hand_delivery(HostId{5}, HostId{3}, InfoMsg{SeqSet{}, HostId{3}}));
  // The source is ahead, so host 3 attaches to it: an out-of-cluster parent.
  c.node(0).broadcast("m1");
  h.on_delivery(
      hand_delivery(HostId{0}, HostId{3}, InfoMsg{SeqSet::contiguous(1), {}}));
  h.run_attachment_now();
  c.run_for(sim::milliseconds(10));
  ASSERT_EQ(h.parent(), HostId{0});
  ASSERT_TRUE(h.state().is_child(HostId{5}));

  const auto info_targets = [&c] {
    std::vector<HostId> to;
    for (const auto& sent : c.hub.log) {
      if (sent.from == HostId{3} && sent.kind == "info") to.push_back(sent.to);
    }
    return to;
  };
  c.hub.log.clear();
  h.run_info_intra_now();
  EXPECT_EQ(info_targets(),
            (std::vector<HostId>{HostId{0}, HostId{1}, HostId{2}, HostId{5}}));
  c.hub.log.clear();
  h.run_info_inter_now();
  EXPECT_EQ(info_targets(),
            (std::vector<HostId>{HostId{4}, HostId{6}, HostId{7}}));
}

// One INFO round hands every destination a copy of the same set: each copy
// reads the sender's own interval block, and the sender's next accepted
// message gives it a fresh block instead of writing through the copies.
TEST(BroadcastHost, InfoRoundCopiesShareTheSendersSetUntilItChanges) {
  Config config = hub_config();
  config.cluster_knowledge = Config::ClusterKnowledge::kStatic;
  Cluster c(6, config);
  BroadcastHost& h = c.node(0);
  h.seed_cluster({HostId{0}, HostId{1}, HostId{2}});
  h.broadcast("m1");
  h.broadcast("m2");
  c.hub.log.clear();
  h.run_info_intra_now();
  h.run_info_inter_now();

  std::vector<SeqSet> sent;
  for (const auto& entry : c.hub.log) {
    if (entry.from != HostId{0} || entry.kind != "info") continue;
    const auto& m = std::get<InfoMsg>(
        std::any_cast<const ProtocolMessage&>(entry.payload));
    EXPECT_TRUE(m.info.shares_storage_with(h.state().info()));
    sent.push_back(m.info);
  }
  ASSERT_EQ(sent.size(), 5u);  // cluster peers 1, 2; everyone else 3, 4, 5

  h.broadcast("m3");  // record_message: the sender's INFO moves on
  EXPECT_EQ(h.state().info(), SeqSet::contiguous(3));
  for (const SeqSet& info : sent) {
    EXPECT_EQ(info, SeqSet::contiguous(2));
    EXPECT_FALSE(info.shares_storage_with(h.state().info()));
  }
}

TEST(BroadcastHost, ParentTimeoutDetachesAndReattaches) {
  Cluster c(3);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));
  ASSERT_EQ(c.node(2).parent(), HostId{0});

  // Silence everything from host 0 (its crash); host 2 must time the
  // parent out, then find host 1 (equal info, higher order than none...
  // host 1 is in the same cluster and has the stream).
  c.hub.set_drop(HostId{0}, HostId{1}, true);
  c.hub.set_drop(HostId{0}, HostId{2}, true);
  c.run_for(sim::seconds(3));
  EXPECT_GE(c.node(2).counters().parent_timeouts +
                c.node(1).counters().parent_timeouts,
            1u);
  EXPECT_NE(c.node(2).parent(), HostId{0});
}

TEST(BroadcastHost, CostBitMaintainsClusterView) {
  Cluster c(2);
  c.hub.set_expensive(HostId{0}, HostId{1}, true);
  c.start_all();
  c.run_for(sim::seconds(1));
  // All traffic between 0 and 1 is expensive: they see separate clusters.
  EXPECT_FALSE(c.node(1).state().in_cluster(HostId{0}));

  c.hub.set_expensive(HostId{0}, HostId{1}, false);
  c.run_for(sim::seconds(1));
  EXPECT_TRUE(c.node(1).state().in_cluster(HostId{0}));
}

TEST(BroadcastHost, StaticClusterKnowledgeIgnoresCostBit) {
  Config config = hub_config();
  config.cluster_knowledge = Config::ClusterKnowledge::kStatic;
  Cluster c(2, config);
  c.node(1).seed_cluster({HostId{0}, HostId{1}});
  c.hub.set_expensive(HostId{0}, HostId{1}, true);
  c.start_all();
  c.run_for(sim::seconds(1));
  EXPECT_TRUE(c.node(1).state().in_cluster(HostId{0}));
}

TEST(BroadcastHost, PruningReleasesSafePrefix) {
  Config config = hub_config();
  config.enable_pruning = true;
  Cluster c(2, config);
  c.start_all();
  for (int k = 1; k <= 5; ++k) {
    c.node(0).broadcast("m" + std::to_string(k));
    c.run_for(sim::milliseconds(300));
  }
  c.run_for(sim::seconds(3));
  ASSERT_EQ(c.node(1).info().count(), 5u);
  // Everyone has everything and INFO exchange has spread that knowledge:
  // the prefix must be pruned on both ends.
  EXPECT_EQ(c.node(0).info().prune_watermark(), 5u);
  EXPECT_EQ(c.node(1).info().prune_watermark(), 5u);
  EXPECT_EQ(c.node(0).state().body_of(1), nullptr);
}

TEST(BroadcastHost, PruningDisabledKeepsEverything) {
  Config config = hub_config();
  config.enable_pruning = false;
  Cluster c(2, config);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));
  EXPECT_EQ(c.node(0).info().prune_watermark(), 0u);
  EXPECT_NE(c.node(0).state().body_of(1), nullptr);
}

TEST(BroadcastHost, PiggybackCarriesSenderInfoOnData) {
  Config config = hub_config();
  config.piggyback_info = true;
  Cluster c(3, config);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));

  // Every data message in the log must carry the piggyback.
  int data_seen = 0;
  for (const auto& sent : c.hub.log) {
    const auto* pm = std::any_cast<ProtocolMessage>(&sent.payload);
    ASSERT_NE(pm, nullptr);
    if (const auto* data = std::get_if<DataMsg>(pm)) {
      ++data_seen;
      EXPECT_TRUE(data->piggyback.has_value());
    }
  }
  EXPECT_GT(data_seen, 0);
}

TEST(BroadcastHost, PiggybackDisabledByDefault) {
  Cluster c(2);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));
  for (const auto& sent : c.hub.log) {
    const auto* pm = std::any_cast<ProtocolMessage>(&sent.payload);
    ASSERT_NE(pm, nullptr);
    if (const auto* data = std::get_if<DataMsg>(pm)) {
      EXPECT_FALSE(data->piggyback.has_value());
    }
  }
}

TEST(BroadcastHost, PiggybackRefreshesMapWithoutInfoMessages) {
  // With separate INFO exchange effectively disabled, the piggyback alone
  // must keep the child's view of the parent's INFO set fresh.
  Config config = hub_config();
  config.piggyback_info = true;
  Cluster c(2, config);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(2));  // attach with normal exchange
  ASSERT_EQ(c.node(1).parent(), HostId{0});

  // Freeze control traffic: stretch INFO periods beyond the test horizon.
  // (Periods cannot be changed mid-run through the public API, so instead
  // verify the piggyback path directly: inject a data message carrying a
  // piggybacked INFO far ahead of anything host 1 has heard via control.)
  SeqSet advanced = SeqSet::contiguous(50);
  ProtocolMessage m{DataMsg{2, "m2", false,
                            std::make_pair(advanced, kNoHost), std::nullopt}};
  c.node(1).on_delivery(net::Delivery{
      .from = HostId{0},
      .to = HostId{1},
      .expensive = false,
      .payload = std::any(m),
      .bytes = 128,
      .kind = "data",
      .sent_at = 0,
      .hops = 1});
  EXPECT_EQ(c.node(1).state().map(HostId{0}).max_seq(), 50u);
}

TEST(BroadcastHost, PiggybackIncreasesDataWireSize) {
  DataMsg plain{1, "body", false, std::nullopt, std::nullopt};
  DataMsg loaded{1, "body", false,
                 std::make_pair(SeqSet::contiguous(100), HostId{3}),
                 std::nullopt};
  EXPECT_LT(wire_size(ProtocolMessage{plain}),
            wire_size(ProtocolMessage{loaded}));
}

TEST(BroadcastHost, SourceNeverRunsAttachment) {
  Cluster c(3);
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(5));
  EXPECT_EQ(c.node(0).counters().attach_attempts, 0u);
  EXPECT_FALSE(c.node(0).parent().valid());
}

// Engineers a genuine single-cluster cycle 1 -> 0 -> 2 -> 1 through the
// real automaton (crafted INFO/accept deliveries), then verifies the
// Section 4.3 rule: the member with the highest static order breaks it.
TEST(BroadcastHost, SingleClusterCycleIsBrokenByHighestOrder) {
  // Host 3 is the (idle, unreachable) source, so hosts 0..2 all run the
  // attachment procedure and host 2 has the highest order among them.
  Cluster c(4, hub_config(), /*source=*/HostId{3});
  c.hub.isolate(HostId{3}, {HostId{0}, HostId{1}, HostId{2}}, true);

  auto deliver = [&](int to, int from, ProtocolMessage m,
                     bool expensive = false) {
    c.node(to).on_delivery(net::Delivery{.from = HostId{from},
                                         .to = HostId{to},
                                         .expensive = expensive,
                                         .payload = std::any(std::move(m)),
                                         .bytes = 64,
                                         .kind = "test",
                                         .sent_at = 0,
                                         .hops = 1});
  };

  // Everyone sees everyone in one cluster (cheap info deliveries), with
  // empty INFO sets and unknown parents.
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a != b) deliver(a, b, InfoMsg{SeqSet{}, kNoHost});
    }
  }

  // Forge the edges 0 -> 2, 1 -> 0, 2 -> 1: steer each host's candidate
  // view, run the procedure, and answer its request by hand (the clock
  // never runs, so only crafted deliveries exist).
  //
  // Host 0 -> 2: with equal INFO everywhere, option I.2 picks the
  // highest-order in-cluster leader, which is host 2.
  c.node(0).run_attachment_now();
  ASSERT_FALSE(c.hub.log.empty());
  ASSERT_EQ(c.hub.log.back().to, HostId{2});
  deliver(0, 2, AttachAccept{SeqSet{}, kNoHost});
  ASSERT_EQ(c.node(0).parent(), HostId{2});

  // Host 1 -> 0: evict host 2 from CLUSTER_1 (expensive delivery), and
  // make host 0 look ahead so option I.1 picks it.
  deliver(1, 2, InfoMsg{SeqSet{}, kNoHost}, /*expensive=*/true);
  deliver(1, 0, InfoMsg{SeqSet::of({1}), kNoHost});
  c.node(1).run_attachment_now();
  ASSERT_EQ(c.hub.log.back().to, HostId{0});
  deliver(1, 0, AttachAccept{SeqSet::of({1}), kNoHost});
  ASSERT_EQ(c.node(1).parent(), HostId{0});

  // Host 2 -> 1: same trick (evict 0, make 1 look ahead).
  deliver(2, 0, InfoMsg{SeqSet{}, kNoHost}, /*expensive=*/true);
  deliver(2, 1, InfoMsg{SeqSet::of({1}), kNoHost});
  c.node(2).run_attachment_now();
  ASSERT_EQ(c.hub.log.back().to, HostId{1});
  deliver(2, 1, AttachAccept{SeqSet::of({1}), kNoHost});
  ASSERT_EQ(c.node(2).parent(), HostId{1});

  // The cycle 0 -> 2 -> 1 -> 0 now exists. Restore host 2's full cluster
  // view (cheap delivery re-adds host 0) and give it the parent pointers
  // so its ancestor walk finds the cycle: 1 -> 0 -> 2 = self.
  deliver(2, 0, InfoMsg{SeqSet::of({1}), HostId{2}});  // p[0] = 2, cheap
  deliver(2, 1, InfoMsg{SeqSet::of({1}), HostId{0}});  // p[1] = 0

  // Host 2 has the highest order on the cycle: it must break it.
  ASSERT_EQ(c.node(2).counters().cycles_broken, 0u);
  c.node(2).run_attachment_now();
  EXPECT_EQ(c.node(2).counters().cycles_broken, 1u);
  EXPECT_NE(c.node(2).parent(), HostId{1});

  // Lower-order members never break cycles themselves: host 0's view of
  // the same cycle (2 -> 1 -> 0 = self) leaves the action to host 2.
  deliver(0, 1, InfoMsg{SeqSet::of({1}), HostId{0}});
  deliver(0, 2, InfoMsg{SeqSet{}, HostId{1}});
  const auto broken_before = c.node(0).counters().cycles_broken;
  c.node(0).run_attachment_now();
  EXPECT_EQ(c.node(0).counters().cycles_broken, broken_before);
}

// A lost AttachAccept must not strand the requester: the candidate is
// excluded for a few rounds, the periodic parent-pointer exchange
// reconciles the stale CHILDREN entry, and the retry succeeds once the
// exclusion expires.
TEST(BroadcastHost, LostAttachAcceptRecoversAfterExclusionExpiry) {
  Cluster c(2);
  // Everything from host 0 to host 1 is dropped: requests reach host 0,
  // accepts never come back. Host 1 must still learn that host 0 is ahead
  // (its INFO would normally arrive on the now-dead path), so inject that
  // one control message by hand.
  c.hub.set_drop(HostId{0}, HostId{1}, true);
  c.start_all();
  c.node(0).broadcast("m1");
  c.node(1).on_delivery(net::Delivery{
      .from = HostId{0},
      .to = HostId{1},
      .expensive = false,
      .payload = std::any(ProtocolMessage{InfoMsg{SeqSet::of({1}), kNoHost}}),
      .bytes = 32,
      .kind = "info",
      .sent_at = 0,
      .hops = 1});
  c.run_for(sim::seconds(2));

  // Host 1 tried and timed out at least once; host 0 holds a stale child.
  EXPECT_GE(c.node(1).counters().attach_timeouts, 1u);
  EXPECT_FALSE(c.node(1).parent().valid());

  // Heal the path. Host 1's next INFO (claiming no parent) fixes host 0's
  // CHILDREN; after the exclusion expires (4 x attach_period = 400 ms)
  // the retry goes through and the stream arrives.
  c.hub.set_drop(HostId{0}, HostId{1}, false);
  c.run_for(sim::seconds(3));
  EXPECT_EQ(c.node(1).parent(), HostId{0});
  EXPECT_EQ(c.node(1).info().count(), 1u);
}

TEST(BroadcastHost, GapFillOffersAreNotRepeatedAgainstStaleMap) {
  Config cfg = hub_config();
  cfg.gapfill_suppress_period = sim::milliseconds(250);
  Cluster c(2, cfg);
  // Periodic tasks are NOT started: rounds run by hand, so nothing but the
  // calls below generates traffic. The source holds 1..5.
  for (int k = 1; k <= 5; ++k) c.node(0).broadcast("m" + std::to_string(k));

  // Host 1 reports INFO {1,5}: holes 2..4 below its own maximum, so the
  // source may fill them (capped offers never exceed the reported max).
  SeqSet peer;
  peer.insert(1);
  peer.insert(5);
  ProtocolMessage info{InfoMsg{peer, kNoHost}};
  net::Delivery report{.from = HostId{1},
                       .to = HostId{0},
                       .expensive = false,
                       .payload = std::any(info),
                       .bytes = 64,
                       .kind = "info",
                       .sent_at = 0,
                       .hops = 1};
  c.node(0).on_delivery(report);

  auto gapfills = [&] { return c.hub.sent_count("gapfill"); };
  c.node(0).run_gapfill_far_now();
  const std::size_t first = gapfills();
  EXPECT_EQ(first, 3u);  // fills 2, 3, 4

  // Back-to-back round against the unchanged MAP: nothing is re-sent.
  c.node(0).run_gapfill_far_now();
  EXPECT_EQ(gapfills(), first);

  // A fresh INFO report that still lacks the offered seqs refutes the
  // optimistic fold — the fills were evidently lost, so the very next
  // round re-offers without waiting for the suppress period.
  c.node(0).on_delivery(report);
  c.node(0).run_gapfill_far_now();
  EXPECT_EQ(gapfills(), 2 * first);

  // Suppressed again immediately after...
  c.node(0).run_gapfill_far_now();
  EXPECT_EQ(gapfills(), 2 * first);

  // ...until the suppress period lapses with no news from the peer.
  c.run_for(sim::milliseconds(300));
  c.node(0).run_gapfill_far_now();
  EXPECT_EQ(gapfills(), 3 * first);
}

TEST(BroadcastHost, AttachRetriesAreBoundedUnderTotalPartition) {
  // Host 11 sits alone behind expensive links (its own cluster). After
  // convergence its uplink breaks: everything it SENDS is lost, and so is
  // its parent's traffic — but INFO from the other hosts still reaches it,
  // so case I keeps proposing fresh out-of-cluster candidates with strictly
  // greater INFO sets forever. Every attach request it fires times out.
  // This is the worst case for retry traffic: with unbounded immediate
  // retries the host would cycle through the candidate list at rate
  // 1/attach_ack_timeout; the retry burst must cap it near 1/attach_period.
  constexpr int kHosts = 12;
  const HostId cut_host{kHosts - 1};
  Config cfg = hub_config();
  cfg.attach_period = sim::milliseconds(500);
  cfg.attach_ack_timeout = sim::milliseconds(50);
  Cluster c(kHosts, cfg);
  for (int j = 0; j + 1 < kHosts; ++j) {
    c.hub.set_expensive(cut_host, HostId{j}, true);
  }
  c.start_all();
  c.node(0).broadcast("m1");
  c.run_for(sim::seconds(3));  // converge: everyone attached, MAPs full
  ASSERT_TRUE(c.node(kHosts - 1).parent().valid());

  for (int j = 0; j + 1 < kHosts; ++j) {
    c.hub.set_drop(cut_host, HostId{j}, true);  // uplink dead
  }
  c.hub.set_drop(c.node(kHosts - 1).parent(), cut_host, true);  // parent mute
  c.node(0).broadcast("m2");  // the others pull ahead: candidates stay valid
  const sim::TimePoint cut = c.sim.now();
  const sim::Duration window = sim::seconds(20);
  c.run_for(window);

  // A hot loop at 1/attach_ack_timeout would emit hundreds of requests in
  // this window (~11 per exclusion cycle of 2 s ≈ 110+); the burst plus the
  // periodic timer bound it near window/attach_period.
  std::size_t requests = 0;
  for (const auto& s : c.hub.log) {
    if (s.kind == "attach_req" && s.from == cut_host && s.at >= cut) {
      ++requests;
    }
  }
  const std::size_t periodic_ceiling =
      static_cast<std::size_t>(window / cfg.attach_period);
  EXPECT_GE(requests, 5u);  // it IS still trying
  EXPECT_LE(requests, periodic_ceiling + kAttachRetryBurst + 4);
}

TEST(BroadcastHost, BroadcastOnNonSourceAborts) {
  Cluster c(2);
  EXPECT_DEATH(c.node(1).broadcast("nope"), "non-source");
}

}  // namespace
}  // namespace rbcast::core
