// Differential test of the two hosts that run core::ProtocolRules: one
// scripted sequence of deliveries goes to a BroadcastHost (on a FakeHub,
// never started, so no timer fires) and to a model::ModelNode with the same
// self, host list and clusters. After every step both must hold the same
// HostState (INFO, MAP, p[], CHILDREN, CLUSTER), the same attach handshake
// in flight and the same deliveries, and must have sent the same
// (to, kind, seq) sequence. A second copy of the receive rules that drifts
// from the first fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <sstream>
#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "model/model_node.h"
#include "support/fake_network.h"

namespace rbcast {
namespace {

using core::AttachAccept;
using core::AttachRequest;
using core::DataMsg;
using core::DetachNotice;
using core::InfoMsg;
using core::ProtocolMessage;
using core::Seq;
using core::SeqSet;

const HostId kSelf{1};
// Hosts 0 (the source) and 1 share a cluster; 2 and 3 share another.
const std::vector<int> kClusterOf = {0, 0, 1, 1};

// A send as both sides report it: "to:kind#seq" (seq only for data).
std::string describe(HostId to, const ProtocolMessage& m) {
  std::ostringstream os;
  os << to.value << ':' << core::kind_of(m);
  if (const auto* data = std::get_if<DataMsg>(&m)) os << '#' << data->seq;
  return os.str();
}

// Everything the rules keep, in one comparable string.
std::string describe(const core::HostState& s, HostId pending,
                     const std::vector<Seq>& delivered) {
  std::ostringstream os;
  os << "info=" << s.info().to_string() << " parent=" << s.parent().value
     << " pending=" << pending.value << " children=";
  for (HostId c : s.children()) os << c.value << ',';
  os << " cluster=";
  for (HostId c : s.cluster()) os << c.value << ',';
  for (HostId h : s.all_hosts()) {
    if (h == s.self()) continue;
    os << " map[" << h.value << "]=" << s.map(h).to_string() << "/p="
       << s.parent_of(h).value;
  }
  os << " delivered=";
  for (Seq q : delivered) os << q << ',';
  return os.str();
}

// Follows the host's attach handshake through its public observer calls.
struct PendingTracker : core::ProtocolObserver {
  HostId pending{kNoHost};
  void on_attach_requested(HostId, HostId candidate,
                           const std::string&) override {
    pending = candidate;
  }
  void on_attached(HostId, HostId) override { pending = kNoHost; }
  void on_attach_timeout(HostId, HostId) override { pending = kNoHost; }
};

class RulesDifferential : public ::testing::Test {
 protected:
  RulesDifferential()
      : host_(hub_, kSelf, HostId{0}, {HostId{0}, HostId{1}, HostId{2},
                                        HostId{3}},
              core::Config{}, util::Rng(1),
              [this](Seq seq, std::string_view) {
                host_delivered_.push_back(seq);
              }),
        model_(kSelf, model_config()) {
    host_.set_observer(&tracker_);
  }

  static model::ModelConfig model_config() {
    model::ModelConfig config;
    config.hosts = 4;
    config.cluster_of = kClusterOf;
    return config;
  }

  static bool expensive(HostId from) {
    return kClusterOf[static_cast<std::size_t>(from.value)] !=
           kClusterOf[static_cast<std::size_t>(kSelf.value)];
  }

  // Delivers `m` from `from` to both sides; returns what they sent.
  std::vector<std::string> deliver(HostId from, const ProtocolMessage& m) {
    net::Delivery d;
    d.from = from;
    d.to = kSelf;
    d.expensive = expensive(from);
    d.payload = m;
    host_.on_delivery(d);
    return compare(model_.on_message(from, m, expensive(from)));
  }

  std::vector<std::string> attachment_step() {
    host_.run_attachment_now();
    return compare(model_.attachment_step());
  }

  // Checks both sides agree; returns the sends of this step.
  std::vector<std::string> compare(
      const std::vector<model::ModelMessage>& model_sends) {
    std::vector<std::string> host_sent;
    for (; seen_ < hub_.log.size(); ++seen_) {
      const auto& sent = hub_.log[seen_];
      EXPECT_EQ(sent.from, kSelf);
      host_sent.push_back(describe(
          sent.to, *std::any_cast<ProtocolMessage>(&sent.payload)));
    }
    std::vector<std::string> model_sent;
    for (const model::ModelMessage& m : model_sends) {
      EXPECT_EQ(m.from, kSelf);
      model_sent.push_back(describe(m.to, m.payload));
    }
    EXPECT_EQ(host_sent, model_sent);

    std::vector<Seq> model_delivered;
    for (const auto& [seq, count] : model_.deliveries()) {
      for (int k = 0; k < count; ++k) model_delivered.push_back(seq);
    }
    std::vector<Seq> host_delivered = host_delivered_;
    std::sort(host_delivered.begin(), host_delivered.end());
    EXPECT_EQ(describe(host_.state(), tracker_.pending, host_delivered),
              describe(model_.state(), model_.pending_attach(),
                       model_delivered));
    return host_sent;
  }

  static DataMsg data(Seq seq, bool gap_fill = false) {
    return DataMsg{seq, "m" + std::to_string(seq), gap_fill, std::nullopt,
                   std::nullopt};
  }

  sim::Simulator sim_;
  testing::FakeHub hub_{sim_};
  std::vector<Seq> host_delivered_;
  core::BroadcastHost host_;
  model::ModelNode model_;
  PendingTracker tracker_;
  std::size_t seen_{0};
};

using Sends = std::vector<std::string>;

TEST_F(RulesDifferential, HostAndModelRunTheSameRules) {
  const HostId h0{0}, h2{2}, h3{3};

  // The source reports {1}: h0 joins CLUSTER over a cheap path.
  EXPECT_EQ(deliver(h0, InfoMsg{SeqSet::of({1}), kNoHost}), Sends{});
  // An attachment step picks the in-cluster leader ahead of us (I.1).
  EXPECT_EQ(attachment_step(), (Sends{"0:attach_req"}));
  // The pending accept makes h0 the parent.
  EXPECT_EQ(deliver(h0, AttachAccept{SeqSet::of({1}), kNoHost}), Sends{});
  ASSERT_EQ(host_.parent(), h0);

  // A new maximum from the parent is accepted (no children yet).
  EXPECT_EQ(deliver(h0, data(1)), Sends{});
  // A new maximum from a non-parent is discarded.
  EXPECT_EQ(deliver(h3, data(3)), Sends{});
  EXPECT_EQ(host_.counters().new_max_rejected, 1u);
  // h2 asks to attach with nothing: accept, then back-fill seq 1.
  EXPECT_EQ(deliver(h2, AttachRequest{SeqSet{}}),
            (Sends{"2:attach_ack", "2:gapfill#1"}));
  // New maxima from the parent go down to the new child.
  EXPECT_EQ(deliver(h0, data(2)), (Sends{"2:data#2"}));
  EXPECT_EQ(deliver(h0, data(4)), (Sends{"2:data#4"}));
  // A gap fill from a non-neighbor is relayed to both neighbors lacking it.
  EXPECT_EQ(deliver(h3, data(3, /*gap_fill=*/true)),
            (Sends{"2:gapfill#3", "0:gapfill#3"}));
  // A duplicate is discarded.
  EXPECT_EQ(deliver(h3, data(2)), Sends{});
  EXPECT_EQ(host_.counters().duplicates_discarded, 1u);

  // INFO naming us as parent adds a child; INFO naming another removes one.
  EXPECT_EQ(deliver(h3, InfoMsg{SeqSet::of({2, 3}), kSelf}), Sends{});
  EXPECT_EQ(deliver(h2, InfoMsg{SeqSet::of({1, 2}), h3}), Sends{});
  ASSERT_TRUE(host_.state().is_child(h3));
  ASSERT_FALSE(host_.state().is_child(h2));
  // h2 re-attaches: its report refutes the earlier offers of 3 and 4, so
  // both are back-filled again.
  EXPECT_EQ(deliver(h2, AttachRequest{SeqSet::of({1, 2})}),
            (Sends{"2:attach_ack", "2:gapfill#3", "2:gapfill#4"}));

  // A stale accept (no handshake in flight, not our parent) is undone.
  EXPECT_EQ(deliver(h3, AttachAccept{SeqSet::of({2, 3}), kNoHost}),
            (Sends{"3:detach"}));
  // A detach notice removes the child.
  EXPECT_EQ(deliver(h3, DetachNotice{}), Sends{});
  ASSERT_FALSE(host_.state().is_child(h3));

  // With the source as parent the attachment step has nothing to do.
  EXPECT_EQ(attachment_step(), Sends{});
}

TEST_F(RulesDifferential, SwitchingParentsNotifiesTheOldOne) {
  const HostId h0{0}, h2{2};
  // Only h2, in the other cluster, is ahead: attach to it (I.3).
  EXPECT_EQ(deliver(h2, InfoMsg{SeqSet::of({1, 2}), h0}), Sends{});
  EXPECT_EQ(attachment_step(), (Sends{"2:attach_req"}));
  EXPECT_EQ(deliver(h2, AttachAccept{SeqSet::of({1, 2}), h0}), Sends{});
  ASSERT_EQ(host_.parent(), h2);
  // The source, in our own cluster, pulls ahead; the next step moves to
  // it (II.1) and the accept tells h2 we left.
  EXPECT_EQ(deliver(h0, InfoMsg{SeqSet::of({1, 2, 3}), kNoHost}), Sends{});
  EXPECT_EQ(attachment_step(), (Sends{"0:attach_req"}));
  EXPECT_EQ(deliver(h0, AttachAccept{SeqSet::of({1, 2, 3}), kNoHost}),
            (Sends{"2:detach"}));
  ASSERT_EQ(host_.parent(), h0);
}

}  // namespace
}  // namespace rbcast
