// Measured allocation gate for the hot path: the event queue, the
// simulator's step and a network hop, the protocol upcalls, HostState's
// per-peer queries and SeqSet. Every case warms its structures to steady
// state first, then counts operator new calls with a counting global
// allocator (support/alloc_counter), so the bound covers whatever the code
// calls, not a list of function names. The INFO rounds have their own
// gate, info_alloc_test.
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "core/broadcast_host.h"
#include "core/host_state.h"
#include "core/messages.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "support/alloc_counter.h"
#include "support/counting_transport.h"
#include "topo/generators.h"
#include "util/rng.h"
#include "util/seq_set.h"

namespace rbcast {
namespace {

using core::BroadcastHost;
using core::DataMsg;
using core::InfoMsg;
using core::Payload;
using core::ProtocolMessage;
using testing::allocations_during;
using testing::CountingTransport;
using util::SeqSet;

// --- event queue --------------------------------------------------------

// 1000 small closures scheduled at interleaved times, then drained.
void schedule_and_drain(sim::EventQueue& queue, int& fired) {
  for (int i = 0; i < 1000; ++i) {
    queue.schedule(sim::TimePoint{(i * 7) % 13}, [&fired] { ++fired; });
  }
  while (!queue.empty()) {
    (void)queue.next_time();
    queue.pop().action();
  }
}

TEST(EventQueueAllocations, ScheduleAndPopAllocateNothingOnceWarm) {
  sim::EventQueue queue;
  int fired = 0;
  schedule_and_drain(queue, fired);  // grows slots and heap to the peak
  EXPECT_EQ(allocations_during([&] {
              for (int round = 0; round < 10; ++round) {
                schedule_and_drain(queue, fired);
              }
            }),
            0u);
  EXPECT_EQ(fired, 11 * 1000);
}

TEST(EventQueueAllocations, CancelAndCompactionAllocateNothingOnceWarm) {
  sim::EventQueue queue;
  std::vector<sim::EventId> ids(1000);
  auto churn = [&] {
    for (int i = 0; i < 1000; ++i) {
      ids[static_cast<std::size_t>(i)] =
          queue.schedule(sim::TimePoint{i}, [] {});
    }
    // Cancelling all but every tenth event compacts the tombstones away.
    for (int i = 0; i < 1000; ++i) {
      if (i % 10 != 0) (void)queue.cancel(ids[static_cast<std::size_t>(i)]);
    }
    while (!queue.empty()) queue.pop();
  };
  churn();
  EXPECT_EQ(allocations_during([&] {
              for (int round = 0; round < 10; ++round) churn();
            }),
            0u);
  EXPECT_LT(queue.backing_size(), std::size_t{1000});
}

// --- simulator step and network hop --------------------------------------

// A 4x4 clustered WAN whose hosts only count deliveries.
struct NetworkHop {
  sim::Simulator simulator;
  util::RngFactory rngs{1};
  topo::Wan wan = topo::make_clustered_wan(
      topo::ClusteredWanOptions{.clusters = 4, .hosts_per_cluster = 4});
  net::Network network{simulator, wan.topology, net::NetConfig{}, rngs};
  std::size_t delivered = 0;

  NetworkHop() {
    for (const auto& host : wan.topology.hosts()) {
      network.register_host(host.id,
                            [this](const net::Delivery&) { ++delivered; });
    }
  }

  // One send between every ordered pair of hosts: 240 sends. The int
  // payload fits std::any's inline buffer.
  void all_pairs_burst() {
    for (const auto& from : wan.topology.hosts()) {
      for (const auto& to : wan.topology.hosts()) {
        if (from.id != to.id) {
          network.send(from.id, to.id, std::any(from.id.value), 64, "data");
        }
      }
    }
  }
};

TEST(NetworkHopAllocations, StepAllocatesNothingOnceTheSlabIsWarm) {
  NetworkHop hop;
  for (int warm = 0; warm < 2; ++warm) {
    hop.all_pairs_burst();
    hop.simulator.run_to_completion();
  }
  ASSERT_EQ(hop.delivered, std::size_t{2 * 240});
  EXPECT_EQ(allocations_during([&] {
              hop.all_pairs_burst();
              hop.simulator.run_to_completion();
            }),
            0u);
  EXPECT_EQ(hop.delivered, std::size_t{3 * 240});
}

TEST(NetworkHopAllocations, RunUntilAllocatesNothingOnceTheSlabIsWarm) {
  NetworkHop hop;
  for (int warm = 0; warm < 2; ++warm) {
    hop.all_pairs_burst();
    hop.simulator.run_to_completion();
  }
  EXPECT_EQ(allocations_during([&] {
              hop.all_pairs_burst();
              hop.simulator.run_until(hop.simulator.now() + sim::seconds(60));
            }),
            0u);
  EXPECT_EQ(hop.delivered, std::size_t{3 * 240});
}

// --- protocol upcalls in a converged run ----------------------------------

// A converged 4x4 run of the paper's protocol: 20 messages, 60 s.
std::unique_ptr<harness::Experiment> converged_run() {
  auto e = std::make_unique<harness::Experiment>(
      topo::make_clustered_wan(
          topo::ClusteredWanOptions{.clusters = 4, .hosts_per_cluster = 4})
          .topology,
      harness::ScenarioOptions{});
  e->start();
  e->broadcast_stream(20, sim::milliseconds(500), sim::seconds(1));
  e->run_until(sim::seconds(60));
  return e;
}

// A non-source host that has a parent.
HostId attached_host(harness::Experiment& e) {
  for (std::size_t i = 0; i < e.host_count(); ++i) {
    const HostId h{static_cast<HostId::value_type>(i)};
    if (h != e.source() && e.host(h).parent().valid()) return h;
  }
  return kNoHost;
}

// A delivery built outside the measured region; in an Experiment its cost
// bit matches the path, so the upcall leaves CLUSTER alone.
net::Delivery delivery(HostId from, HostId to, ProtocolMessage message,
                       harness::Experiment* e = nullptr) {
  net::Delivery d;
  d.from = from;
  d.to = to;
  d.expensive = e != nullptr && !e->network().same_cluster(from, to);
  d.payload = std::move(message);
  return d;
}

TEST(UpcallAllocations, DuplicateDataAllocatesNothing) {
  auto e = converged_run();
  ASSERT_TRUE(e->all_delivered());
  const HostId self = attached_host(*e);
  ASSERT_TRUE(self.valid());
  BroadcastHost& host = e->host(self);
  const HostId parent = host.parent();
  const net::Delivery dup = delivery(
      parent, self,
      DataMsg{1, Payload("duplicate"), false, std::nullopt, std::nullopt},
      e.get());
  const std::uint64_t before = host.counters().duplicates_discarded;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) host.on_delivery(dup);
            }),
            0u);
  EXPECT_EQ(host.counters().duplicates_discarded, before + 100);
}

TEST(UpcallAllocations, UnchangedInfoAllocatesNothing) {
  auto e = converged_run();
  ASSERT_TRUE(e->all_delivered());
  const HostId self = attached_host(*e);
  ASSERT_TRUE(self.valid());
  BroadcastHost& host = e->host(self);
  const HostId peer = host.parent();
  const net::Delivery info = delivery(
      peer, self, InfoMsg{e->host(peer).info(), e->host(peer).parent()},
      e.get());
  ASSERT_EQ(host.state().map(peer), e->host(peer).info());
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) host.on_delivery(info);
            }),
            0u);
  EXPECT_EQ(host.parent(), peer);
}

TEST(UpcallAllocations, AcceptFromParentAndStrayDetachAllocateNothing) {
  auto e = converged_run();
  ASSERT_TRUE(e->all_delivered());
  const HostId self = attached_host(*e);
  ASSERT_TRUE(self.valid());
  BroadcastHost& host = e->host(self);
  const HostId parent = host.parent();
  // A repeated accept from the current parent only refreshes MAP and p[].
  const net::Delivery accept = delivery(
      parent, self,
      core::AttachAccept{e->host(parent).info(), e->host(parent).parent()},
      e.get());
  // A detach from a host that is not a child changes nothing.
  const net::Delivery detach =
      delivery(parent, self, core::DetachNotice{}, e.get());
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) {
                host.on_delivery(accept);
                host.on_delivery(detach);
              }
            }),
            0u);
  EXPECT_EQ(host.parent(), parent);
}

// --- relay fan-out over a counting transport -------------------------------

// Host 1 under parent 0 (the source) with children 2, 3 and 4, running over
// a transport that keeps nothing: an allocation counted during an upcall is
// the host's own.
struct Relay {
  static constexpr HostId kSelf{1};
  static constexpr HostId kParent{0};

  CountingTransport transport;
  std::unique_ptr<BroadcastHost> host;
  std::size_t forwards = 0;
  std::size_t shared_forwards = 0;
  const Payload* received = nullptr;

  Relay() {
    const std::vector<HostId> all = {HostId{0}, HostId{1}, HostId{2},
                                     HostId{3}, HostId{4}};
    util::RngFactory rngs(1);
    host = std::make_unique<BroadcastHost>(transport, kSelf, kParent, all,
                                           core::Config{},
                                           rngs.stream("host", 1));
    for (int c = 2; c <= 4; ++c) {
      deliver(HostId{c}, core::AttachRequest{SeqSet{}});
    }
    deliver(kParent, InfoMsg{SeqSet{}, kNoHost});
    host->run_attachment_now();
    deliver(kParent, core::AttachAccept{SeqSet{}, kNoHost});
    transport.on_send = [this](HostId, const ProtocolMessage& message) {
      const auto* data = std::get_if<DataMsg>(&message);
      if (data == nullptr) return;
      ++forwards;
      if (received != nullptr && data->body.shares_buffer_with(*received)) {
        ++shared_forwards;
      }
    };
  }

  void deliver(HostId from, ProtocolMessage message) {
    host->on_delivery(delivery(from, kSelf, std::move(message)));
  }

  // Each child reports an empty INFO set, refuting the offers the last
  // relay recorded: the offer tables are empty again, capacity kept.
  void children_report_nothing() {
    for (int c = 2; c <= 4; ++c) deliver(HostId{c}, InfoMsg{SeqSet{}, kSelf});
  }
};

TEST(RelayAllocations, NewDataForwardsOneSharedBodyToEveryChild) {
  Relay r;
  ASSERT_EQ(r.host->parent(), Relay::kParent);
  ASSERT_EQ(r.host->state().children().size(), 3u);

  // Warm-up relay of seq 1: sizes the per-peer tables and the offer lists.
  r.deliver(Relay::kParent,
            DataMsg{1, Payload("first"), false, std::nullopt, std::nullopt});
  ASSERT_EQ(r.forwards, 3u);
  r.children_report_nothing();

  const Payload body("second");
  const net::Delivery d =
      delivery(Relay::kParent, Relay::kSelf,
               DataMsg{2, body, false, std::nullopt, std::nullopt});
  r.received = &body;
  r.forwards = 0;
  const std::uint64_t allocs =
      allocations_during([&] { r.host->on_delivery(d); });
  ASSERT_EQ(r.forwards, 3u);
  // Zero-copy fan-out: every child's DataMsg reads the received buffer.
  EXPECT_EQ(r.shared_forwards, 3u);
  // One std::map node to store the body for gap fills, plus one std::any
  // box per forwarded message. The body bytes are never copied.
  EXPECT_EQ(allocs, 1u + 3u);
}

TEST(RelayAllocations, RepeatedAttachRequestAllocatesOnlyTheAccept) {
  Relay r;
  ASSERT_TRUE(r.host->state().is_child(HostId{2}));
  const std::size_t sends = r.transport.sends;
  const net::Delivery d =
      delivery(HostId{2}, Relay::kSelf, core::AttachRequest{SeqSet{}});
  // The child lacks nothing the host holds and has no offers outstanding,
  // so the only allocation is the std::any box of the AttachAccept reply.
  EXPECT_EQ(allocations_during([&] { r.host->on_delivery(d); }), 1u);
  EXPECT_EQ(r.transport.sends, sends + 1);
}

// --- HostState queries -----------------------------------------------------

TEST(HostStateAllocations, QueriesAndRepeatedLearningAllocateNothing) {
  std::vector<HostId> all;
  for (int i = 0; i < 8; ++i) all.push_back(HostId{i});
  core::HostState state(HostId{3}, all, HostId{0});
  const SeqSet report = SeqSet::contiguous(50);
  std::size_t sink = 0;
  auto round = [&](int i) {
    state.learn_info(HostId{5}, report);
    state.learn_has(HostId{5}, 60);
    state.learn_parent(HostId{5}, HostId{0});
    sink += state.slot(HostId{5 + i % 3});
    sink += state.map(HostId{5}).intervals().size();
    sink += static_cast<std::size_t>(state.parent_of(HostId{5}).value);
  };
  // Warm-up: sizes the per-peer table, clones MAP[5] off the report's
  // block and grows it to the in-place merge's working capacity.
  round(0);
  round(1);
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) round(i);
            }),
            0u);
  EXPECT_GT(sink, 0u);
}

// --- SeqSet ------------------------------------------------------------------

TEST(SeqSetAllocations, InsertAndMergeAtSteadyCapacityAllocateNothing) {
  SeqSet ours = SeqSet::of({1, 3, 5, 7});
  SeqSet peer = SeqSet::of({2, 4});
  ours.merge(peer);  // grows the block once
  ours.insert(20);
  SeqSet report;  // a peer that is ahead on the last interval
  report.insert_range(20, 1500);
  ASSERT_GE(ours.capacity(), ours.intervals().size() + 1);
  EXPECT_EQ(allocations_during([&] {
              // Extending the last interval, one seq at a time or by
              // merging the peer's report, stays within the block.
              for (util::Seq q = 21; q < 1000; ++q) ours.insert(q);
              ours.merge(report);
            }),
            0u);
  EXPECT_EQ(ours.max_seq(), 1500u);
}

TEST(SeqSetAllocations, ReadQueriesAllocateNothing) {
  const SeqSet a = SeqSet::of({1, 2, 3, 7, 8, 12});
  const SeqSet b = SeqSet::contiguous(12);
  std::uint64_t sink = 0;
  EXPECT_EQ(allocations_during([&] {
              sink += a.contains(7) ? 1 : 0;
              sink += a.max_seq() + a.count() + a.contiguous_prefix();
              sink += a.less_than(b) ? 1 : 0;
              sink += a.max_equal(b) ? 1 : 0;
              sink += a.empty() ? 1 : 0;
              sink += a == b ? 1 : 0;
              sink += a.gaps(0).size();
              sink += a.missing_from(b).size();  // b holds all of a
            }),
            0u);
  EXPECT_GT(sink, 0u);
}

TEST(SeqSetAllocations, VectorQueriesAllocateOnlyTheirResult) {
  const SeqSet a = SeqSet::of({1, 2, 3, 7, 8, 12});
  const SeqSet b = SeqSet::contiguous(12);
  // One element answers: one allocation for the returned vector.
  EXPECT_EQ(allocations_during([&] { (void)a.gaps(1); }), 1u);
  EXPECT_EQ(allocations_during([&] { (void)b.missing_from(a, 1); }), 1u);
  EXPECT_EQ(allocations_during([&] { (void)b.missing_from_capped(a, 12, 1); }),
            1u);
  // encode() reserves the exact wire size up front.
  EXPECT_EQ(allocations_during([&] { (void)a.encode(); }), 1u);
}

TEST(SeqSetAllocations, PruneOfAnUnsharedBlockAllocatesNothing) {
  SeqSet s = SeqSet::of({1, 2, 3, 7, 8, 12, 14});
  EXPECT_EQ(allocations_during([&] {
              s.prune_below(2);
              s.prune_below(8);
              s.prune_below(20);
            }),
            0u);
  EXPECT_TRUE(s.intervals().empty());
}

// --- one end-to-end window ---------------------------------------------------

// Measured: 4,262 allocations for 3,090 host sends (g++ 12, libstdc++).
constexpr std::uint64_t kIdleWindowCeiling = 4300;

// A converged 4x4 run left idle for 20 s: only the periodic timers (INFO,
// gap fill, attachment, maintenance) and the network run. Each host send
// boxes its message in a std::any; the rest comes from timer paths that
// build short-lived containers: HostState::neighbors() in gap-fill rounds
// and the ancestors_of_self() walk in attachment rounds.
TEST(IdleWindowAllocations, ConvergedRunStaysUnderItsCeiling) {
  auto e = converged_run();
  ASSERT_TRUE(e->all_delivered());
  const std::uint64_t sends_before = e->metrics().host_sends();
  const std::uint64_t allocs =
      allocations_during([&] { e->run_for(sim::seconds(20)); });
  const std::uint64_t sends = e->metrics().host_sends() - sends_before;
  ASSERT_GT(sends, 0u);
  EXPECT_LE(allocs, kIdleWindowCeiling) << sends << " host sends";
}

}  // namespace
}  // namespace rbcast
