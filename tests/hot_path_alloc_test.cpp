// Measured allocation gate for the hot path: the event queue, the
// simulator's step and a network hop, the protocol upcalls, HostState's
// per-peer queries, CLUSTER/CHILDREN churn and body store, the transport
// coalescer, the attachment and gap-fill rounds, SeqSet, the first-delivery
// record of trace::Metrics and trace::EventLog's pushes, plus a check that
// the counter sees every form of operator new. Every case warms
// its structures to steady state first, then counts operator new calls
// with a counting global allocator (support/alloc_counter), so the bound
// covers whatever the code calls, not a list of function names. The INFO
// rounds have their own gate, info_alloc_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
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
#include "trace/event_log.h"
#include "trace/metrics.h"
#include "transport/coalescer.h"
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

  // Warm-up relays of seqs 1..3: they size the per-peer tables, the offer
  // lists and the body store, whose buffer (doubling from one entry) then
  // has room for a fourth message.
  for (util::Seq seq = 1; seq <= 3; ++seq) {
    r.forwards = 0;
    r.deliver(Relay::kParent, DataMsg{seq, Payload("warm"), false,
                                      std::nullopt, std::nullopt});
    ASSERT_EQ(r.forwards, 3u);
    r.children_report_nothing();
  }

  const Payload body("fourth");
  const net::Delivery d =
      delivery(Relay::kParent, Relay::kSelf,
               DataMsg{4, body, false, std::nullopt, std::nullopt});
  r.received = &body;
  r.forwards = 0;
  const std::uint64_t allocs =
      allocations_during([&] { r.host->on_delivery(d); });
  ASSERT_EQ(r.forwards, 3u);
  // Zero-copy fan-out: every child's DataMsg reads the received buffer.
  EXPECT_EQ(r.shared_forwards, 3u);
  // One std::any box per forwarded message and nothing else: the body is
  // stored for gap fills in spare capacity, and its bytes are never copied.
  EXPECT_EQ(allocs, 3u);
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

// With offers toward every child still live, a gap-fill round reads them
// through a reused buffer and plans without building a set. Children 2 and
// 3 report holding the relayed seq (which does not refute the offer);
// child 4 has not reported, so its MAP lacks the seq, but the live offer
// suppresses the re-send and the plan stays empty: nothing is allocated.
TEST(RelayAllocations, GapFillRoundWithLiveOffersAllocatesNothing) {
  Relay r;
  r.deliver(Relay::kParent,
            DataMsg{1, Payload("first"), false, std::nullopt, std::nullopt});
  ASSERT_EQ(r.forwards, 3u);
  for (int c = 2; c <= 3; ++c) {
    r.deliver(HostId{c}, InfoMsg{SeqSet::of({1}), Relay::kSelf});
  }
  ASSERT_FALSE(r.host->state().map(HostId{4}).contains(1));
  r.host->run_gapfill_neighbor_now();  // warm-up: sizes the offer buffer
  r.forwards = 0;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) r.host->run_gapfill_neighbor_now();
            }),
            0u);
  EXPECT_EQ(r.forwards, 0u);
}

// A gap fill relayed while offers of other seqs are pending toward every
// child: checking them builds no set and the body store inserts the fill
// into spare capacity, so the only allocations are one box per relayed
// message.
TEST(RelayAllocations, RelayedGapFillWithOffersPendingAllocatesOnlyTheBoxes) {
  Relay r;
  // New maxima k and k + 2 are forwarded to the three children (offers
  // now pending toward each); then the parent fills k + 1, which every
  // child lacks. The children's empty reports then refute all offers,
  // leaving the offer lists empty with their capacity kept.
  const auto relay_round = [&r](util::Seq k) {
    r.deliver(Relay::kParent, DataMsg{k, Payload("max"), false, std::nullopt,
                                      std::nullopt});
    r.deliver(Relay::kParent, DataMsg{k + 2, Payload("max"), false,
                                      std::nullopt, std::nullopt});
    const net::Delivery fill =
        delivery(Relay::kParent, Relay::kSelf,
                 DataMsg{k + 1, Payload("fill"), true, std::nullopt,
                         std::nullopt});
    r.forwards = 0;
    const std::uint64_t allocs =
        allocations_during([&] { r.host->on_delivery(fill); });
    EXPECT_EQ(r.forwards, 3u);
    r.children_report_nothing();
    return allocs;
  };
  // Warm-up: seqs 1..3 grow the store's buffer to four entries, and seq 6
  // (the second new maximum of the measured round) to eight, so the fill
  // of seq 5 lands in spare capacity.
  (void)relay_round(1);
  EXPECT_EQ(relay_round(4), 3u);
  EXPECT_EQ(r.host->counters().gapfills_sent, 6u);
}

// --- attachment round ---------------------------------------------------

// Host 4 under 3 under 2 under 1, all in one cluster; 1 has no parent, so
// it is the cluster's leader, but it lags host 4. Case III walks the
// three-deep chain into the host's reused buffer and finds no better
// parent: a steady-state round allocates nothing.
TEST(AttachmentAllocations, ThreeDeepSameClusterChainAllocatesNothing) {
  constexpr HostId kSelf{4};
  CountingTransport transport;
  const std::vector<HostId> all = {HostId{0}, HostId{1}, HostId{2},
                                   HostId{3}, HostId{4}, HostId{5}};
  util::RngFactory rngs(1);
  BroadcastHost host(transport, kSelf, HostId{0}, all, core::Config{},
                     rngs.stream("host", 4));
  const auto deliver = [&](HostId from, ProtocolMessage message) {
    host.on_delivery(delivery(from, kSelf, std::move(message)));
  };
  // Host 3 is an in-cluster leader ahead of us (rule I.1), and says it has
  // attached to 2 by the time it accepts.
  deliver(HostId{3}, InfoMsg{SeqSet::of({1}), kNoHost});
  host.run_attachment_now();
  deliver(HostId{3}, core::AttachAccept{SeqSet::of({1}), HostId{2}});
  ASSERT_EQ(host.parent(), HostId{3});
  deliver(HostId{2}, InfoMsg{SeqSet{}, HostId{1}});
  deliver(HostId{1}, InfoMsg{SeqSet{}, kNoHost});
  deliver(HostId{3},
          DataMsg{1, Payload("m1"), false, std::nullopt, std::nullopt});
  host.run_attachment_now();  // warm-up: sizes the ancestor buffer
  const std::size_t sends = transport.sends;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) host.run_attachment_now();
            }),
            0u);
  EXPECT_EQ(transport.sends, sends);
  EXPECT_EQ(host.parent(), HostId{3});
  EXPECT_EQ(host.counters().attach_attempts, 1u);
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

// CLUSTER_i and CHILDREN_i are flags on the peer slots, so membership churn
// (the cost-bit rule on every receipt, children coming and going) touches
// no tree: 1,000 flips of each kind allocate nothing once the state exists.
TEST(HostStateAllocations, MembershipChurnAllocatesNothing) {
  std::vector<HostId> all;
  for (int i = 0; i < 8; ++i) all.push_back(HostId{i});
  core::HostState state(HostId{3}, all, HostId{0});
  std::size_t sink = 0;
  auto churn = [&](int i) {
    const HostId peer{i % 8};
    state.update_cluster_from_cost_bit(peer, /*expensive=*/false);
    sink += state.in_cluster(peer) ? 1 : 0;
    state.add_child(peer);
    sink += state.is_child(peer) ? 1 : 0;
    state.update_cluster_from_cost_bit(peer, /*expensive=*/true);
    state.remove_child(peer);
    sink += state.cluster().size() + state.children().size();
  };
  churn(0);
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 1000; ++i) churn(i);
            }),
            0u);
  EXPECT_GT(sink, 0u);
  EXPECT_EQ(state.cluster().size(), 1u);  // {self}
  EXPECT_TRUE(state.children().empty());
}

// A peer's reports alternate between fresh seqs above its watermark and a
// watermark covering them all (it pruned everything), with a data receipt
// from it in between. The pruned-empty MAP keeps its block, so the next
// report refills it in place rather than sharing the report's block and
// cloning it at the receipt.
TEST(HostStateAllocations, LearningIntoAMapThatPruningEmptiedAllocatesNothing) {
  std::vector<HostId> all;
  for (int i = 0; i < 8; ++i) all.push_back(HostId{i});
  core::HostState state(HostId{3}, all, HostId{0});
  constexpr int kCycles = 102;
  std::vector<SeqSet> fresh;
  std::vector<SeqSet> emptied;
  for (int k = 0; k < kCycles; ++k) {
    const util::Seq base = 20 * static_cast<util::Seq>(k);
    SeqSet report;
    report.prune_below(base);
    report.insert_range(base + 1, base + 10);
    fresh.push_back(report);
    SeqSet all_pruned;
    all_pruned.prune_below(base + 20);
    emptied.push_back(all_pruned);
  }
  const auto cycle = [&](int k) {
    const auto i = static_cast<std::size_t>(k);
    state.learn_info(HostId{5}, fresh[i]);
    state.learn_has(HostId{5}, 20 * static_cast<util::Seq>(k) + 12);
    state.learn_info(HostId{5}, emptied[i]);
  };
  cycle(0);  // warm-up: sizes the per-peer table and MAP[5]'s block
  cycle(1);
  EXPECT_EQ(allocations_during([&] {
              for (int k = 2; k < kCycles; ++k) cycle(k);
            }),
            0u);
  EXPECT_TRUE(state.map(HostId{5}).intervals().empty());
  EXPECT_EQ(state.map(HostId{5}).prune_watermark(), util::Seq{20 * kCycles});
}

// The body store at steady capacity: each cycle records 32 messages (every
// fourth one arrives late, as a gap fill inserted below the maximum) and
// then prunes them all. The entries share prebuilt bodies and the buffer
// keeps its capacity across prunes, so once it has grown to the window
// nothing allocates.
TEST(HostStateAllocations, RecordPruneCyclesAtSteadyCapacityAllocateNothing) {
  std::vector<HostId> all;
  for (int i = 0; i < 8; ++i) all.push_back(HostId{i});
  core::HostState state(HostId{3}, all, HostId{0});
  const Payload body("body");
  constexpr util::Seq kWindow = 32;
  util::Seq next = 1;
  const auto cycle = [&] {
    const util::Seq base = next;
    for (util::Seq q = base; q < base + kWindow; ++q) {
      if (q % 4 != 1) state.record_message(q, body);
    }
    for (util::Seq q = base; q < base + kWindow; q += 4) {
      state.record_message(q, body);  // the late fills
    }
    next = base + kWindow;
    state.prune(next - 1);
  };
  cycle();  // warm-up: grows the store and INFO to the window
  cycle();
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 100; ++i) cycle();
            }),
            0u);
  EXPECT_TRUE(state.stored_messages().empty());
  EXPECT_EQ(state.info().prune_watermark(), next - 1);
}

// --- Coalescer -----------------------------------------------------------------

// A coalescer whose flush moves each payload out, as the backends do.
struct CoalescerRig {
  sim::Simulator sim;
  std::size_t flushed_frames = 0;
  std::size_t batches = 0;
  transport::Coalescer coalescer{
      sim, transport::CoalescerConfig{sim::milliseconds(5), 200},
      [this](HostId, std::span<transport::Coalescer::Item> items) {
        ++batches;
        for (transport::Coalescer::Item& item : items) {
          std::any payload = std::move(item.payload);
          flushed_frames += payload.has_value() ? 1 : 0;
        }
      }};

  // An item small enough that building it allocates nothing.
  static transport::Coalescer::Item item(std::size_t bytes) {
    transport::Coalescer::Item out;
    out.payload = 7;
    out.bytes = bytes;
    out.kind = "data";
    return out;
  }
};

// Deadline flushes of lone frames to four destinations, then size flushes
// of 40-byte frames into a 200-byte budget: once each queue's two buffers
// have held a batch, queueing and flushing allocate nothing.
TEST(CoalescerAllocations, SingletonAndSizeFlushesAllocateNothingOnceWarm) {
  CoalescerRig rig;
  const auto singletons = [&rig] {
    for (int to = 1; to <= 4; ++to) {
      rig.coalescer.enqueue(HostId{to}, CoalescerRig::item(40));
    }
    rig.sim.run_for(sim::milliseconds(10));  // every deadline fires
  };
  const auto size_flushes = [&rig] {
    for (int k = 0; k < 12; ++k) {
      rig.coalescer.enqueue(HostId{1}, CoalescerRig::item(40));
    }
    rig.sim.run_for(sim::milliseconds(10));  // the remainder's deadline
  };
  singletons();  // warm-up: the queues' map nodes and both buffers
  singletons();
  size_flushes();
  size_flushes();
  const std::size_t batches = rig.batches;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 50; ++i) {
                singletons();
                size_flushes();
              }
            }),
            0u);
  // Per iteration: four singletons, then 12 frames as three batches of
  // four (6 + 4 * 44 bytes fill the budget): two size flushes, one deadline.
  EXPECT_EQ(rig.batches - batches, 50u * (4 + 3));
  EXPECT_EQ(rig.coalescer.stats().size_flushes, 52u * 2);
  EXPECT_EQ(rig.flushed_frames, rig.coalescer.stats().frames_enqueued);
  EXPECT_EQ(rig.coalescer.pending_frames(), 0u);
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

TEST(SeqSetAllocations, MergeIntoABlockPruningEmptiedAllocatesNothing) {
  SeqSet ours = SeqSet::of({1, 3, 5});
  ours.prune_below(10);
  ASSERT_TRUE(ours.intervals().empty());
  SeqSet report;
  report.prune_below(10);
  report.insert_range(11, 20);
  report.insert(30);
  EXPECT_EQ(allocations_during([&] {
              ours.merge(report);
              ours.insert(25);  // a write: no clone, nothing shared
            }),
            0u);
  EXPECT_EQ(ours.to_string(), "{1..10(pruned),11..20,25,30}");
}

// A peer's MAP adopted its previous report's block, which that report
// still shares. The next report raises the watermark past the first
// interval and brings more intervals than the block holds: the merge
// prunes within its walk, so the one clone it must make is sized for the
// union and nothing is spliced or grown besides.
TEST(SeqSetAllocations, HigherWatermarkIntoASharedBlockAllocatesOnce) {
  SeqSet previous;
  previous.prune_below(10);
  for (const util::Seq q : {12, 13, 15, 16, 18, 19}) previous.insert(q);
  SeqSet map;
  map.merge(previous);
  ASSERT_TRUE(map.shares_storage_with(previous));
  ASSERT_LT(map.capacity(), std::size_t{2 + 5});
  SeqSet report;
  report.prune_below(14);
  for (const util::Seq q : {15, 16, 18, 19, 21, 23, 25}) report.insert(q);
  EXPECT_EQ(allocations_during([&] { map.merge(report); }), 1u);
  EXPECT_EQ(map.to_string(), "{1..14(pruned),15..16,18..19,21,23,25}");
  EXPECT_EQ(previous.to_string(), "{1..10(pruned),12..13,15..16,18..19}");
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

// --- first-delivery record ---------------------------------------------------

TEST(MetricsAllocations, LaterDeliveriesOfASeqAllocateNothing) {
  NetworkHop hop;
  trace::Metrics metrics(hop.simulator, hop.network);
  // The first seq opens the first row chunk (and its chunk-table slot and
  // the seq index); every seq whose row fits in it allocates nothing.
  EXPECT_EQ(allocations_during([&] { metrics.record_broadcast(1); }), 3u);
  EXPECT_EQ(allocations_during([&] {
              for (int h = 0; h < 16; ++h) metrics.record_delivery(HostId{h}, 1);
              for (int h = 0; h < 16; ++h) metrics.record_delivery(HostId{h}, 1);
              metrics.record_broadcast(2);
              metrics.record_delivery(HostId{5}, 2);
              metrics.record_delivery(HostId{6}, 3);  // never broadcast
            }),
            0u);
  EXPECT_EQ(metrics.delivered_count(1), 16u);
  // A far-off seq costs one row like any other.
  const util::Seq far = (util::Seq{1} << 40) + 1;
  EXPECT_LE(allocations_during([&] { metrics.record_delivery(HostId{3}, far); }),
            1u);
  EXPECT_EQ(metrics.delivered_count(far), 1u);
}

// --- protocol event log ------------------------------------------------------

TEST(EventLogAllocations, PushAllocatesOnlyAtChunkBoundaries) {
  sim::Simulator simulator;
  trace::EventLog log(simulator);
  constexpr std::size_t kChunk = trace::EventLog::kChunkEvents;
  const std::size_t n = 3 * kChunk + 1;
  // Longer than any small-string buffer, so each new text costs one block.
  const std::string rule_a = "attachment rule with a long name, A";
  const std::string rule_b = "attachment rule with a long name, B";
  const std::uint64_t allocs = allocations_during([&] {
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0:
          log.on_delivered(HostId{1}, i);
          break;
        case 1:
          log.on_attach_requested(HostId{1}, HostId{2}, rule_a);
          break;
        case 2:
          log.on_attach_requested(HostId{2}, HostId{1}, rule_b);
          break;
        default:
          log.on_attached(HostId{2}, HostId{1});
          break;
      }
    }
  });
  EXPECT_EQ(allocs, (n + kChunk - 1) / kChunk + 2);
  ASSERT_EQ(log.events().size(), n);
  // A cleared log refills the chunks it kept.
  log.clear();
  EXPECT_EQ(allocations_during([&] {
              for (std::size_t i = 0; i < n; ++i) log.on_delivered(HostId{1}, i);
            }),
            0u);
}

// --- the counter itself ------------------------------------------------------

// The counter replaces every replaceable operator new, not only the plain
// ones: nothrow and over-aligned allocations count too, and their blocks
// come back through the matching delete (a mismatch aborts under ASan).
TEST(AllocationCounter, CountsNothrowAlignedAndTemporaryBufferAllocations) {
  EXPECT_EQ(allocations_during([] {
              int* p = new (std::nothrow) int(7);
              ASSERT_NE(p, nullptr);
              delete p;
            }),
            1u);
  struct alignas(64) Wide {
    char bytes[64];
  };
  EXPECT_EQ(allocations_during([] {
              auto wide = std::make_unique<Wide>();
              EXPECT_EQ(reinterpret_cast<std::uintptr_t>(wide.get()) % 64, 0u);
            }),
            1u);
  // std::stable_sort takes its merge buffer with new(std::nothrow).
  std::vector<int> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>((i * 7919) % 1000);
  }
  EXPECT_GE(allocations_during(
                [&] { std::stable_sort(values.begin(), values.end()); }),
            1u);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

// --- one end-to-end window ---------------------------------------------------

// A converged 4x4 run left idle for 20 s: only the periodic timers (INFO,
// gap fill, attachment, maintenance) and the network run. Each host send
// boxes its message in a std::any; nothing else allocates — the rounds
// walk the parent graph in place, reuse their buffers and plan without
// building sets — so the count is exact (3,090 on g++ 12, libstdc++).
TEST(IdleWindowAllocations, ConvergedRunAllocatesOnlyTheMessageBoxes) {
  auto e = converged_run();
  ASSERT_TRUE(e->all_delivered());
  const std::uint64_t sends_before = e->metrics().host_sends();
  const std::uint64_t allocs =
      allocations_during([&] { e->run_for(sim::seconds(20)); });
  const std::uint64_t sends = e->metrics().host_sends() - sends_before;
  ASSERT_GT(sends, 0u);
  EXPECT_EQ(allocs, sends);
}

// The same window with stream16's transport: a star of trunks losing 1 %
// of messages, and every send coalesced for 5 ms. The coalescer lends each
// flushed batch out of a buffer its queue keeps, so batching adds nothing
// to the message boxes.
TEST(IdleWindowAllocations, BatchedLossyRunAllocatesOnlyTheMessageBoxes) {
  topo::ClusteredWanOptions wan{.clusters = 4, .hosts_per_cluster = 4};
  wan.shape = topo::TrunkShape::kStar;
  wan.expensive.loss_probability = 0.01;
  harness::ScenarioOptions options;
  options.protocol.batch_flush_delay = sim::milliseconds(5);
  harness::Experiment e(topo::make_clustered_wan(wan).topology, options);
  e.start();
  e.broadcast_stream(20, sim::milliseconds(500), sim::seconds(1));
  e.run_until(sim::seconds(60));
  ASSERT_TRUE(e.all_delivered());
  const std::uint64_t sends_before = e.metrics().host_sends();
  const std::uint64_t allocs =
      allocations_during([&] { e.run_for(sim::seconds(20)); });
  const std::uint64_t sends = e.metrics().host_sends() - sends_before;
  ASSERT_GT(sends, 0u);
  EXPECT_EQ(allocs, sends);
}

}  // namespace
}  // namespace rbcast
