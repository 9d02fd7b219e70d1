// ByzantineTransport unit tests: each adversary behavior mutates exactly
// as specified, mutations are deterministic pure functions of (window,
// message, destination), honest hosts pass through untouched, and the
// behavior windows gate activation.
#include "harness/byzantine.h"

#include <gtest/gtest.h>

#include <any>
#include <string>
#include <utility>
#include <vector>

#include "core/broadcast_host.h"
#include "core/messages.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "topo/generators.h"
#include "transport/sim_transport.h"
#include "util/rng.h"

namespace rbcast::harness {
namespace {

using core::DataMsg;
using core::InfoMsg;
using core::ProtocolMessage;

// One cluster of `n` hosts over the simulated network, with `schedule`
// applied through the Byzantine decorator.
struct Rig {
  sim::Simulator sim;
  topo::Wan wan;
  util::RngFactory rngs{3};
  net::Network network;
  transport::SimTransport inner;
  ByzantineTransport byz;
  // Everything delivered to each host, in order.
  std::vector<std::vector<ProtocolMessage>> got;
  // What each host sends through (interposed for Byzantine hosts).
  std::vector<net::HostEndpoint*> endpoints;

  // Host `protocol_host`, if any, is left unattached for a real protocol
  // host to claim.
  explicit Rig(int n, ByzantineSchedule schedule, int protocol_host = -1)
      : wan(make_wan(n)),
        network(sim, wan.topology, net::NetConfig{}, rngs),
        inner(sim, network),
        byz(inner, std::move(schedule), HostId{0}) {
    got.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (i == protocol_host) {
        endpoints.push_back(nullptr);
        continue;
      }
      endpoints.push_back(
          &byz.attach(HostId{i}, [this, i](const net::Delivery& d) {
            if (const auto* m = std::any_cast<ProtocolMessage>(&d.payload)) {
              got[static_cast<std::size_t>(i)].push_back(*m);
            }
          }));
    }
  }

  static topo::Wan make_wan(int n) {
    topo::ClusteredWanOptions opts;
    opts.clusters = 1;
    opts.hosts_per_cluster = n;
    return make_clustered_wan(opts);
  }

  void send(int from, int to, ProtocolMessage m) {
    endpoints[static_cast<std::size_t>(from)]->send(
        HostId{to}, std::any(m), core::wire_size(m), core::kind_of(m), 0);
  }

  void run() { sim.run_until(sim.now() + sim::seconds(1)); }
};

ByzantineSchedule forever(HostId host, ByzantineBehavior::Kind kind) {
  return {{host, {ByzantineBehavior{kind, 0, 0}}}};
}

DataMsg data(util::Seq seq, const std::string& body) {
  DataMsg d;
  d.seq = seq;
  d.body = body;
  return d;
}

TEST(ByzantineTransport, CorruptFlipsARelayedBodyByte) {
  Rig rig(2, forever(HostId{1}, ByzantineBehavior::Kind::kCorrupt));
  rig.send(1, 0, ProtocolMessage{data(3, "hello")});
  rig.run();

  ASSERT_EQ(rig.got[0].size(), 1u);
  const auto* out = std::get_if<DataMsg>(&rig.got[0][0]);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->seq, 3u);
  EXPECT_NE(out->body, core::Payload{"hello"});
  EXPECT_EQ(out->body.view().size(), 5u);  // one flipped byte, same length
  EXPECT_EQ(rig.byz.mutations(), 1u);
}

TEST(ByzantineTransport, CorruptionIsDeterministicAcrossRuns) {
  auto one_run = [] {
    Rig rig(2, forever(HostId{1}, ByzantineBehavior::Kind::kCorrupt));
    rig.send(1, 0, ProtocolMessage{data(3, "hello")});
    rig.run();
    return std::string(
        std::get<DataMsg>(rig.got[0].at(0)).body.view());
  };
  EXPECT_EQ(one_run(), one_run());
}

TEST(ByzantineTransport, EquivocateShowsDifferentFacesByDestination) {
  Rig rig(4, forever(HostId{1}, ByzantineBehavior::Kind::kEquivocate));
  rig.send(1, 0, ProtocolMessage{data(7, "payload")});  // even destination
  rig.send(1, 3, ProtocolMessage{data(7, "payload")});  // odd destination
  rig.run();

  ASSERT_EQ(rig.got[0].size(), 1u);
  ASSERT_EQ(rig.got[3].size(), 1u);
  const auto& face_even = std::get<DataMsg>(rig.got[0][0]).body;
  const auto& face_odd = std::get<DataMsg>(rig.got[3][0]).body;
  EXPECT_NE(face_even, core::Payload{"payload"});
  EXPECT_NE(face_odd, core::Payload{"payload"});
  // The same (source, seq) tells two different stories.
  EXPECT_NE(face_even, face_odd);
  EXPECT_EQ(rig.byz.mutations(), 2u);
}

TEST(ByzantineTransport, LieInfoInflatesWatermarkAndClaimsRecipientAsParent) {
  Rig rig(2, forever(HostId{1}, ByzantineBehavior::Kind::kLieInfo));
  InfoMsg info;
  info.info.insert(1);
  info.info.insert(2);
  info.parent = kNoHost;
  rig.send(1, 0, ProtocolMessage{info});
  rig.run();

  ASSERT_EQ(rig.got[0].size(), 1u);
  const auto* out = std::get_if<InfoMsg>(&rig.got[0][0]);
  ASSERT_NE(out, nullptr);
  // Sequences 3..10 are claimed but were never received.
  EXPECT_EQ(out->info.max_seq(), 10u);
  EXPECT_TRUE(out->info.contains(7));
  EXPECT_EQ(out->parent, HostId{0});
  EXPECT_EQ(rig.byz.mutations(), 1u);
}

// An INFO round shares one set among all its destinations. The lie told
// to one destination must land in that destination's copy alone: the
// sender's own INFO and every other destination's report stay truthful
// about what it holds.
TEST(ByzantineTransport, LieInfoTouchesOnlyTheLiedToCopyOfASharedRound) {
  Rig rig(4, forever(HostId{1}, ByzantineBehavior::Kind::kLieInfo),
          /*protocol_host=*/1);
  std::vector<HostId> all{HostId{0}, HostId{1}, HostId{2}, HostId{3}};
  core::Config config;
  config.cluster_knowledge = core::Config::ClusterKnowledge::kStatic;
  core::BroadcastHost liar(rig.byz, HostId{1}, HostId{1}, all, config,
                           rig.rngs.stream("liar", 1));
  liar.seed_cluster({HostId{1}});
  liar.broadcast("m1");
  liar.broadcast("m2");
  liar.run_info_inter_now();  // to hosts 0, 2 and 3
  rig.run();

  EXPECT_EQ(liar.state().info(), util::SeqSet::contiguous(2));
  for (const int to : {0, 2, 3}) {
    SCOPED_TRACE(to);
    ASSERT_EQ(rig.got[static_cast<std::size_t>(to)].size(), 1u);
    const auto& out =
        std::get<InfoMsg>(rig.got[static_cast<std::size_t>(to)][0]);
    // Exactly one lie each: 3..10 on top of the truthful 1..2.
    EXPECT_EQ(out.info, util::SeqSet::contiguous(10));
    EXPECT_EQ(out.parent, HostId{to});
  }
  EXPECT_EQ(rig.byz.mutations(), 3u);
}

// The same data frame sent to several destinations: corrupting the body
// and lying in the piggybacked INFO changes each outbound copy only.
TEST(ByzantineTransport, CorruptAndLieLeaveTheSendersMessageIntact) {
  Rig rig(3, {{HostId{1},
               {ByzantineBehavior{ByzantineBehavior::Kind::kCorrupt, 0, 0},
                ByzantineBehavior{ByzantineBehavior::Kind::kLieInfo, 0, 0}}}});
  DataMsg m = data(2, "hello");
  m.piggyback = InfoMsg{util::SeqSet::contiguous(2), kNoHost};
  const ProtocolMessage original{m};
  rig.send(1, 0, original);
  rig.send(1, 2, original);
  rig.run();

  const auto& kept = std::get<DataMsg>(original);
  EXPECT_EQ(kept.body, core::Payload{"hello"});
  EXPECT_EQ(kept.piggyback->info, util::SeqSet::contiguous(2));
  EXPECT_EQ(kept.piggyback->parent, kNoHost);
  for (const int to : {0, 2}) {
    SCOPED_TRACE(to);
    ASSERT_EQ(rig.got[static_cast<std::size_t>(to)].size(), 1u);
    const auto& out = std::get<DataMsg>(rig.got[static_cast<std::size_t>(to)][0]);
    EXPECT_NE(out.body, core::Payload{"hello"});
    EXPECT_EQ(out.piggyback->info, util::SeqSet::contiguous(10));
    EXPECT_EQ(out.piggyback->parent, HostId{to});
  }
}

TEST(ByzantineTransport, BogusOfferInjectsAForgedGapFillAfterInfo) {
  Rig rig(2, forever(HostId{1}, ByzantineBehavior::Kind::kBogusOffer));
  InfoMsg info;
  info.info.insert(1);
  rig.send(1, 0, ProtocolMessage{info});
  rig.run();

  ASSERT_EQ(rig.got[0].size(), 2u);
  EXPECT_TRUE(std::holds_alternative<InfoMsg>(rig.got[0][0]));
  const auto* forged = std::get_if<DataMsg>(&rig.got[0][1]);
  ASSERT_NE(forged, nullptr);
  EXPECT_EQ(forged->seq, 6u);  // max_seq 1 + 5
  EXPECT_TRUE(forged->gap_fill);
  EXPECT_EQ(forged->body, core::Payload{"byzantine-bogus-offer"});
  EXPECT_FALSE(forged->auth.has_value());  // the adversary cannot sign
  EXPECT_EQ(rig.byz.mutations(), 1u);
}

TEST(ByzantineTransport, HonestHostsPassThroughUntouched) {
  Rig rig(3, forever(HostId{1}, ByzantineBehavior::Kind::kCorrupt));
  rig.send(2, 0, ProtocolMessage{data(3, "hello")});
  rig.run();

  ASSERT_EQ(rig.got[0].size(), 1u);
  EXPECT_EQ(std::get<DataMsg>(rig.got[0][0]).body, core::Payload{"hello"});
  EXPECT_EQ(rig.byz.mutations(), 0u);
  EXPECT_EQ(rig.byz.byzantine_hosts(), std::set<HostId>{HostId{1}});
}

TEST(ByzantineTransport, BehaviorWindowGatesActivation) {
  ByzantineSchedule schedule{
      {HostId{1},
       {ByzantineBehavior{ByzantineBehavior::Kind::kCorrupt, 10.0, 20.0}}}};
  Rig rig(2, std::move(schedule));
  // t=0: before the window — the relay is still honest.
  rig.send(1, 0, ProtocolMessage{data(1, "early")});
  rig.run();
  ASSERT_EQ(rig.got[0].size(), 1u);
  EXPECT_EQ(std::get<DataMsg>(rig.got[0][0]).body, core::Payload{"early"});

  // t=15: inside the window.
  rig.sim.run_until(sim::TimePoint{} + sim::seconds(15));
  rig.send(1, 0, ProtocolMessage{data(1, "mid")});
  rig.run();
  ASSERT_EQ(rig.got[0].size(), 2u);
  EXPECT_NE(std::get<DataMsg>(rig.got[0][1]).body, core::Payload{"mid"});

  // t=25: after the window — honest again.
  rig.sim.run_until(sim::TimePoint{} + sim::seconds(25));
  rig.send(1, 0, ProtocolMessage{data(1, "late")});
  rig.run();
  ASSERT_EQ(rig.got[0].size(), 3u);
  EXPECT_EQ(std::get<DataMsg>(rig.got[0][2]).body, core::Payload{"late"});
  EXPECT_EQ(rig.byz.mutations(), 1u);
}

TEST(ByzantineTransport, StaleAuthTagRidesAlongUnrecomputed) {
  Rig rig(2, forever(HostId{1}, ByzantineBehavior::Kind::kCorrupt));
  DataMsg m = data(3, "hello");
  m.auth = core::make_auth_tag(0xfeedULL, HostId{0}, 3, "hello");
  rig.send(1, 0, ProtocolMessage{m});
  rig.run();

  ASSERT_EQ(rig.got[0].size(), 1u);
  const auto& out = std::get<DataMsg>(rig.got[0][0]);
  // Body changed, but the tag is the source's original — so verification
  // against the mutated body must fail.
  ASSERT_TRUE(out.auth.has_value());
  EXPECT_EQ(*out.auth, *m.auth);
  EXPECT_FALSE(core::verify_auth_tag(0xfeedULL, HostId{0}, 3,
                                     out.body.view(), *out.auth));
}

}  // namespace
}  // namespace rbcast::harness
