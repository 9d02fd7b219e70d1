#include "core/basic_protocol.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "support/fake_network.h"

namespace rbcast::core {
namespace {

using rbcast::testing::FakeHub;

struct Fixture {
  sim::Simulator sim;
  FakeHub hub{sim};
  std::unique_ptr<BasicSource> source;
  std::vector<std::unique_ptr<BasicReceiver>> receivers;
  std::vector<std::vector<Seq>> delivered;

  explicit Fixture(int n, BasicConfig config = {.retransmit_period =
                                                    sim::milliseconds(200)}) {
    std::vector<HostId> all;
    for (int i = 0; i < n; ++i) all.push_back(HostId{i});
    delivered.resize(static_cast<std::size_t>(n));
    util::RngFactory rngs(3);
    source = std::make_unique<BasicSource>(hub, HostId{0}, all, config,
                                           rngs.stream("src"));
    receivers.resize(static_cast<std::size_t>(n));
    for (int i = 1; i < n; ++i) {
      receivers[static_cast<std::size_t>(i)] = std::make_unique<BasicReceiver>(
          hub, HostId{i}, [this, i](Seq seq, std::string_view) {
            delivered[static_cast<std::size_t>(i)].push_back(seq);
          });
    }
  }

  void run_for(sim::Duration d) { sim.run_until(sim.now() + d); }
};

TEST(BasicProtocol, BroadcastUnicastsToEveryHost) {
  Fixture f(4);
  f.source->start();
  f.source->broadcast("m1");
  EXPECT_EQ(f.source->counters().first_sends, 3u);
  f.run_for(sim::milliseconds(50));
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(f.delivered[static_cast<std::size_t>(i)],
              (std::vector<Seq>{1}));
  }
}

TEST(BasicProtocol, AcksClearPendingState) {
  Fixture f(3);
  f.source->start();
  f.source->broadcast("m1");
  EXPECT_EQ(f.source->pending(), 2u);
  EXPECT_FALSE(f.source->fully_acked(1));
  f.run_for(sim::milliseconds(50));
  EXPECT_EQ(f.source->pending(), 0u);
  EXPECT_TRUE(f.source->fully_acked(1));
  EXPECT_EQ(f.source->counters().acks_received, 2u);
}

TEST(BasicProtocol, RetransmitsUntilAcked) {
  Fixture f(3);
  // Host 2 is unreachable for a while.
  f.hub.set_drop(HostId{0}, HostId{2}, true);
  f.source->start();
  f.source->broadcast("m1");
  f.run_for(sim::seconds(1));
  EXPECT_GE(f.source->counters().retransmissions, 3u);
  EXPECT_FALSE(f.source->fully_acked(1));
  EXPECT_TRUE(f.delivered[2].empty());

  f.hub.set_drop(HostId{0}, HostId{2}, false);
  f.run_for(sim::seconds(1));
  EXPECT_TRUE(f.source->fully_acked(1));
  EXPECT_EQ(f.delivered[2], (std::vector<Seq>{1}));
}

TEST(BasicProtocol, ReceiverDeliversOnceButAcksEveryCopy) {
  Fixture f(2);
  auto& receiver = *f.receivers[1];
  for (int copy = 0; copy < 3; ++copy) {
    receiver.on_delivery(net::Delivery{
        .from = HostId{0},
        .to = HostId{1},
        .expensive = false,
        .payload = std::any(BasicMessage{BasicData{1, "m1"}}),
        .bytes = 32,
        .kind = "data",
        .sent_at = 0,
        .hops = 1});
  }
  EXPECT_EQ(receiver.counters().deliveries, 1u);
  EXPECT_EQ(receiver.counters().duplicates, 2u);
  EXPECT_EQ(receiver.counters().acks_sent, 3u);
  EXPECT_EQ(f.delivered[1], (std::vector<Seq>{1}));
}

TEST(BasicProtocol, LostAckTriggersRetransmitAndDedup) {
  Fixture f(2);
  f.hub.set_drop(HostId{1}, HostId{0}, true);  // acks die
  f.source->start();
  f.source->broadcast("m1");
  f.run_for(sim::seconds(1));
  EXPECT_GE(f.source->counters().retransmissions, 2u);
  EXPECT_EQ(f.receivers[1]->counters().deliveries, 1u);
  EXPECT_GE(f.receivers[1]->counters().duplicates, 2u);

  f.hub.set_drop(HostId{1}, HostId{0}, false);
  f.run_for(sim::seconds(1));
  EXPECT_TRUE(f.source->fully_acked(1));
}

TEST(BasicProtocol, MultipleMessagesTrackIndependently) {
  Fixture f(3);
  f.source->start();
  f.source->broadcast("m1");
  f.source->broadcast("m2");
  f.run_for(sim::milliseconds(50));
  EXPECT_TRUE(f.source->fully_acked(1));
  EXPECT_TRUE(f.source->fully_acked(2));
  std::vector<Seq> seen = f.delivered[1];
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<Seq>{1, 2}));
}

TEST(BasicProtocol, SourceCountsNoSelfDestination) {
  Fixture f(1);  // source alone
  f.source->start();
  f.source->broadcast("solo");
  EXPECT_EQ(f.source->counters().first_sends, 0u);
  EXPECT_EQ(f.source->pending(), 0u);
  EXPECT_TRUE(f.source->fully_acked(1));
}

}  // namespace
}  // namespace rbcast::core
