// The Transport seam: SimTransport must be a pure forwarding adapter over
// net::Network, UdpTransport must move real datagrams between sockets
// (ephemeral ports, defensive decoding, counted stats), and the seeded
// impairment shim must reproduce exactly per seed.
#include "transport/transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <any>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "core/messages.h"
#include "core/wire_codec.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "topo/generators.h"
#include "transport/coalescer.h"
#include "transport/impairment.h"
#include "transport/sim_transport.h"
#include "transport/udp_transport.h"
#include "transport/wire.h"
#include "util/real_time_scheduler.h"
#include "util/rng.h"

namespace rbcast::transport {
namespace {

// --- SimTransport -----------------------------------------------------------

TEST(SimTransport, ForwardsSendsAndDeliveriesThroughTheNetwork) {
  sim::Simulator sim;
  topo::ClusteredWanOptions opts;
  opts.clusters = 1;
  opts.hosts_per_cluster = 2;
  topo::Wan wan = make_clustered_wan(opts);
  util::RngFactory rngs(3);
  net::Network network(sim, wan.topology, net::NetConfig{}, rngs);
  SimTransport transport(sim, network);

  EXPECT_EQ(&transport.scheduler(), static_cast<util::Scheduler*>(&sim));

  std::vector<std::string> got;
  net::HostEndpoint& ep0 =
      transport.attach(HostId{0}, [&](const net::Delivery& d) {
        got.push_back("h0<-" + std::to_string(d.from.value));
      });
  transport.attach(HostId{1}, [&](const net::Delivery& d) {
    got.push_back("h1<-" + std::to_string(d.from.value));
  });
  EXPECT_EQ(ep0.self(), HostId{0});

  ep0.send(HostId{1}, std::any{std::string("ping")}, 16, "data", 0);
  sim.run_for(sim::seconds(1));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "h1<-0");
}

TEST(SimTransport, DetachSilencesTheUpcallWithoutUnregistering) {
  sim::Simulator sim;
  topo::ClusteredWanOptions opts;
  opts.clusters = 1;
  opts.hosts_per_cluster = 2;
  topo::Wan wan = make_clustered_wan(opts);
  util::RngFactory rngs(3);
  net::Network network(sim, wan.topology, net::NetConfig{}, rngs);
  SimTransport transport(sim, network);

  int delivered = 0;
  net::HostEndpoint& ep0 =
      transport.attach(HostId{0}, [&](const net::Delivery&) {});
  transport.attach(HostId{1}, [&](const net::Delivery&) { ++delivered; });
  transport.detach(HostId{1});

  // The network still routes (registration is permanent) but the detached
  // host's callback must never run again.
  ep0.send(HostId{1}, std::any{std::string("late")}, 16, "data", 0);
  sim.run_for(sim::seconds(1));
  EXPECT_EQ(delivered, 0);
}

TEST(SimTransport, RejectsASecondAttachUntilDetach) {
  sim::Simulator sim;
  topo::ClusteredWanOptions opts;
  opts.clusters = 1;
  opts.hosts_per_cluster = 2;
  topo::Wan wan = make_clustered_wan(opts);
  util::RngFactory rngs(3);
  net::Network network(sim, wan.topology, net::NetConfig{}, rngs);
  // Both the forwarding and the batching paths keep one attach per host.
  for (const CoalescerConfig coalesce :
       {CoalescerConfig{}, CoalescerConfig{sim::milliseconds(5), 1200}}) {
    SimTransport transport(sim, network, coalesce);
    int first = 0;
    int second = 0;
    net::HostEndpoint& ep0 =
        transport.attach(HostId{0}, [](const net::Delivery&) {});
    transport.attach(HostId{1}, [&](const net::Delivery&) { ++first; });
    EXPECT_THROW(
        transport.attach(HostId{1}, [&](const net::Delivery&) { ++second; }),
        std::invalid_argument);

    transport.detach(HostId{1});
    transport.attach(HostId{1}, [&](const net::Delivery&) { ++second; });
    ep0.send(HostId{1}, std::any{std::string("x")}, 16, "data", 0);
    sim.run_for(sim::seconds(1));
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1);
    transport.detach(HostId{0});
    transport.detach(HostId{1});
  }
}

// --- UdpTransport -----------------------------------------------------------

UdpTransport::Config two_host_config() {
  UdpTransport::Config cfg;
  cfg.peers = {{HostId{0}, "127.0.0.1", 0}, {HostId{1}, "127.0.0.1", 0}};
  return cfg;
}

TEST(UdpTransport, DeliversAcrossRealSockets) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport udp(rt, codec, two_host_config());

  std::vector<core::ProtocolMessage> got;
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});
  udp.attach(HostId{1}, [&](const net::Delivery& d) {
    if (const auto* m = std::any_cast<core::ProtocolMessage>(&d.payload)) {
      got.push_back(*m);
    }
    rt.stop();
  });
  // Both ephemeral ports resolved and published to the local peer table.
  EXPECT_NE(udp.local_port(HostId{0}), 0);
  EXPECT_NE(udp.local_port(HostId{1}), 0);

  core::DataMsg data;
  data.seq = 5;
  data.body = "over the wire";
  ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 64, "data", 7);

  rt.run_for(util::seconds(5));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(std::get<core::DataMsg>(got[0]).seq, 5u);
  EXPECT_EQ(std::get<core::DataMsg>(got[0]).body, "over the wire");
  EXPECT_EQ(udp.stats().datagrams_sent, 1u);
  EXPECT_EQ(udp.stats().datagrams_received, 1u);
}

TEST(UdpTransport, GarbageDatagramsAreCountedAndDropped) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport udp(rt, codec, two_host_config());

  int upcalls = 0;
  int empty_payloads = 0;
  udp.attach(HostId{1}, [&](const net::Delivery& d) {
    ++upcalls;
    if (!d.payload.has_value()) ++empty_payloads;
  });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  // The raw datagrams below come from an ad-hoc socket, which the
  // unknown-peer filter would rightly drop; spoof their source as peer 0
  // so the decode paths under test are reached.
  udp.set_recv_fn_for_test(
      [&](int fd, void* buf, std::size_t len, sockaddr_in* src) -> ssize_t {
        socklen_t src_len = sizeof(*src);
        const ssize_t n = ::recvfrom(fd, buf, len, 0,
                                     reinterpret_cast<sockaddr*>(src),
                                     &src_len);
        if (n >= 0) {
          src->sin_family = AF_INET;
          ::inet_pton(AF_INET, "127.0.0.1", &src->sin_addr);
          src->sin_port = htons(udp.local_port(HostId{0}));
        }
        return n;
      });

  // A frame-level corruption: valid payload, then scribble on the magic.
  core::DataMsg data;
  data.seq = 1;
  Frame frame;
  frame.from = HostId{0};
  frame.to = HostId{1};
  frame.kind = "data";
  ASSERT_TRUE(codec.encode(std::any{core::ProtocolMessage{data}},
                           frame.payload));
  std::string garbage = encode_frame(frame);
  garbage[0] = 'X';

  // Send it raw, straight into host 1's socket.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(udp.local_port(HostId{1}));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &to.sin_addr), 1);
  ASSERT_EQ(::sendto(fd, garbage.data(), garbage.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
            static_cast<ssize_t>(garbage.size()));

  // A payload-level corruption: valid frame, garbage body — must reach the
  // host as an EMPTY payload so BroadcastHost can count it.
  frame.payload = "not a protocol message";
  const std::string bad_body = encode_frame(frame);
  ASSERT_EQ(::sendto(fd, bad_body.data(), bad_body.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
            static_cast<ssize_t>(bad_body.size()));
  ::close(fd);

  // And one good message, to bound the wait.
  ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 64, "data", 0);

  rt.after(util::seconds(3), [&] { rt.stop(); });
  std::function<void()> poll = [&] {
    if (udp.stats().datagrams_received >= 3) {
      rt.stop();
    } else {
      rt.after(util::milliseconds(20), poll);
    }
  };
  rt.after(util::milliseconds(20), poll);
  rt.run_for(util::seconds(4));

  EXPECT_EQ(udp.stats().frame_decode_errors, 1u);
  EXPECT_EQ(udp.stats().payload_decode_errors, 1u);
  EXPECT_EQ(empty_payloads, 1);
  EXPECT_EQ(upcalls, 2);  // the bad-frame datagram never reaches the host
}

TEST(UdpTransport, RunsTwoBroadcastHostsEndToEnd) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport udp(rt, codec, two_host_config());

  core::Config fast;
  fast.attach_period = util::milliseconds(50);
  fast.info_period_intra = util::milliseconds(30);
  fast.info_period_inter = util::milliseconds(100);
  fast.gapfill_period_neighbor = util::milliseconds(50);
  fast.gapfill_period_far = util::milliseconds(200);
  fast.parent_timeout = util::seconds(1);
  fast.attach_ack_timeout = util::milliseconds(100);
  fast.data_bytes = 16;

  const std::vector<HostId> all{HostId{0}, HostId{1}};
  util::RngFactory rngs(11);
  std::vector<util::Seq> delivered;
  core::BroadcastHost source(udp, HostId{0}, HostId{0}, all, fast,
                             rngs.stream("host.jitter", 0));
  core::BroadcastHost sink(
      udp, HostId{1}, HostId{0}, all, fast, rngs.stream("host.jitter", 1),
      [&](util::Seq seq, std::string_view) { delivered.push_back(seq); });
  source.start();
  sink.start();

  rt.after(util::milliseconds(100), [&] { source.broadcast("one"); });
  rt.after(util::milliseconds(200), [&] { source.broadcast("two"); });
  std::function<void()> poll = [&] {
    if (delivered.size() >= 2) {
      rt.stop();
    } else {
      rt.after(util::milliseconds(50), poll);
    }
  };
  rt.after(util::milliseconds(50), poll);
  rt.run_for(util::seconds(10));

  EXPECT_EQ(delivered, (std::vector<util::Seq>{1, 2}));
  EXPECT_EQ(sink.counters().decode_errors, 0u);
}

// --- SimTransport batching --------------------------------------------------

TEST(SimTransport, BatchingCoalescesSendsAndUnpacksPerFrameDeliveries) {
  sim::Simulator sim;
  topo::ClusteredWanOptions opts;
  opts.clusters = 1;
  opts.hosts_per_cluster = 2;
  topo::Wan wan = make_clustered_wan(opts);
  util::RngFactory rngs(3);
  net::Network network(sim, wan.topology, net::NetConfig{}, rngs);
  CoalescerConfig coalesce;
  coalesce.flush_delay = sim::milliseconds(5);
  coalesce.max_bytes = 1200;
  SimTransport transport(sim, network, coalesce);
  ASSERT_TRUE(transport.batching());

  std::vector<std::string> got;
  net::HostEndpoint& ep0 =
      transport.attach(HostId{0}, [&](const net::Delivery&) {});
  transport.attach(HostId{1}, [&](const net::Delivery& d) {
    // The receive side must see per-frame deliveries, not the container.
    got.push_back(d.kind + "/" + std::to_string(d.bytes));
  });

  ep0.send(HostId{1}, std::any{std::string("a")}, 16, "data", 0);
  ep0.send(HostId{1}, std::any{std::string("b")}, 20, "info", 0);
  ep0.send(HostId{1}, std::any{std::string("c")}, 16, "data", 0);
  sim.run_for(sim::seconds(1));

  EXPECT_EQ(got, (std::vector<std::string>{"data/16", "info/20", "data/16"}));
  const Coalescer::Stats stats = transport.coalescer_stats();
  EXPECT_EQ(stats.frames_enqueued, 3u);
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.size_flushes, 0u);
}

// --- Coalescer re-entrancy ---------------------------------------------------

// The first three flushes each queue five more frames for the same host
// from inside the flush callback. With 40-byte frames, four fill a
// 200-byte datagram, so the fifth of every group forces a nested size
// flush while the outer batch is still lent out. Every frame still goes out
// exactly once, in the order enqueue() was called, and no batch overflows.
TEST(Coalescer, FlushCallbackThatEnqueuesToTheSameHostLosesAndReordersNothing) {
  sim::Simulator sim;
  int next = 0;
  const auto item = [&next] {
    Coalescer::Item out;
    out.payload = next++;
    out.bytes = 40;
    out.kind = "data";
    return out;
  };
  std::vector<int> sent;
  std::vector<std::size_t> batch_sizes;
  std::unique_ptr<Coalescer> coalescer;
  coalescer = std::make_unique<Coalescer>(
      sim, CoalescerConfig{sim::milliseconds(5), 200},
      [&](HostId to, std::span<Coalescer::Item> items) {
        EXPECT_EQ(to, HostId{1});
        batch_sizes.push_back(items.size());
        for (Coalescer::Item& frame : items) {
          sent.push_back(std::any_cast<int>(frame.payload));
        }
        if (batch_sizes.size() <= 3) {
          for (int k = 0; k < 5; ++k) coalescer->enqueue(to, item());
        }
      });
  for (int k = 0; k < 5; ++k) coalescer->enqueue(HostId{1}, item());
  sim.run_for(sim::milliseconds(10));  // the last queue's deadline

  std::vector<int> expected(20);
  for (int k = 0; k < 20; ++k) expected[static_cast<std::size_t>(k)] = k;
  EXPECT_EQ(sent, expected);
  for (std::size_t n : batch_sizes) {
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 4u);
  }
  const Coalescer::Stats stats = coalescer->stats();
  EXPECT_EQ(stats.frames_enqueued, 20u);
  EXPECT_EQ(stats.batches_flushed, batch_sizes.size());
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(coalescer->pending_frames(), 0u);
}

// --- UdpTransport receive loop (the bugfix sweep) ---------------------------

TEST(UdpTransport, RecvLoopRetriesImmediatelyAfterEintr) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport udp(rt, codec, two_host_config());

  int delivered = 0;
  udp.attach(HostId{1}, [&](const net::Delivery&) {
    ++delivered;
    rt.stop();
  });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  // First call: a signal interrupted recvfrom. The loop must retry at
  // once (the datagram is still queued), not bail out or count an error.
  int eintrs = 0;
  udp.set_recv_fn_for_test(
      [&](int fd, void* buf, std::size_t len, sockaddr_in* src) -> ssize_t {
        if (eintrs == 0) {
          ++eintrs;
          errno = EINTR;
          return -1;
        }
        socklen_t src_len = sizeof(*src);
        return ::recvfrom(fd, buf, len, 0, reinterpret_cast<sockaddr*>(src),
                          &src_len);
      });

  core::DataMsg data;
  data.seq = 1;
  ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 16, "data", 0);
  rt.run_for(util::seconds(5));

  EXPECT_EQ(eintrs, 1);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(udp.stats().recv_errors, 0u);
  EXPECT_EQ(udp.stats().datagrams_received, 1u);
}

TEST(UdpTransport, RecvLoopTreatsEagainAsDrainedNotAsAnError) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport udp(rt, codec, two_host_config());

  int delivered = 0;
  udp.attach(HostId{1}, [&](const net::Delivery&) { ++delivered; });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  int calls = 0;
  udp.set_recv_fn_for_test(
      [&](int, void*, std::size_t, sockaddr_in*) -> ssize_t {
        ++calls;
        errno = EAGAIN;
        return -1;
      });

  // A real datagram parks in the socket buffer so poll keeps reporting
  // readable; the fake recv never hands it over.
  core::DataMsg data;
  data.seq = 1;
  ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 16, "data", 0);
  rt.after(util::milliseconds(150), [&] { rt.stop(); });
  rt.run_for(util::seconds(2));

  EXPECT_GE(calls, 1);  // the loop ran and exited at EAGAIN...
  EXPECT_EQ(udp.stats().recv_errors, 0u);       // ...without counting errors
  EXPECT_EQ(udp.stats().datagrams_received, 0u);
  EXPECT_EQ(delivered, 0);
}

TEST(UdpTransport, HardRecvErrorsAreCountedAndTheTransportSurvives) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport udp(rt, codec, two_host_config());

  int delivered = 0;
  udp.attach(HostId{1}, [&](const net::Delivery&) {
    ++delivered;
    rt.stop();
  });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  // First call: a hard socket error (not EINTR, not EAGAIN). It must be
  // counted in recv_errors — distinguishable from a drained socket — and
  // must not kill the transport: the next wakeup still drains the queue.
  int hard_errors = 0;
  udp.set_recv_fn_for_test(
      [&](int fd, void* buf, std::size_t len, sockaddr_in* src) -> ssize_t {
        if (hard_errors == 0) {
          ++hard_errors;
          errno = EBADF;
          return -1;
        }
        socklen_t src_len = sizeof(*src);
        return ::recvfrom(fd, buf, len, 0, reinterpret_cast<sockaddr*>(src),
                          &src_len);
      });

  core::DataMsg data;
  data.seq = 1;
  ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 16, "data", 0);
  rt.run_for(util::seconds(5));

  EXPECT_EQ(hard_errors, 1);
  EXPECT_EQ(udp.stats().recv_errors, 1u);
  EXPECT_EQ(delivered, 1);  // the queued datagram was still delivered
}

TEST(UdpTransport, DropsDatagramsFromUnknownSourceAddresses) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport udp(rt, codec, two_host_config());

  int delivered = 0;
  udp.attach(HostId{1}, [&](const net::Delivery&) { ++delivered; });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  // Receive the real datagram but claim it came from an address that is
  // in no peer binding: the frame must be dropped before decoding, counted
  // only in recv_unknown_peer.
  udp.set_recv_fn_for_test(
      [&](int fd, void* buf, std::size_t len, sockaddr_in* src) -> ssize_t {
        socklen_t src_len = sizeof(*src);
        const ssize_t n = ::recvfrom(fd, buf, len, 0,
                                     reinterpret_cast<sockaddr*>(src),
                                     &src_len);
        if (n >= 0) {
          src->sin_family = AF_INET;
          ::inet_pton(AF_INET, "203.0.113.9", &src->sin_addr);
          src->sin_port = htons(4444);
        }
        return n;
      });

  core::DataMsg data;
  data.seq = 1;
  ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 16, "data", 0);
  rt.after(util::milliseconds(150), [&] { rt.stop(); });
  rt.run_for(util::seconds(2));

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(udp.stats().recv_unknown_peer, 1u);
  EXPECT_EQ(udp.stats().frame_decode_errors, 0u);  // never reached the parser
}

TEST(UdpTransport, ZeroedSourceAddressCountsAsUnknownPeer) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport udp(rt, codec, two_host_config());

  int delivered = 0;
  udp.attach(HostId{1}, [&](const net::Delivery&) { ++delivered; });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  // A recv seam that never fills `src` models a sender the kernel could
  // not attribute: the zeroed struct must not match any peer.
  udp.set_recv_fn_for_test(
      [&](int fd, void* buf, std::size_t len, sockaddr_in*) -> ssize_t {
        return ::recvfrom(fd, buf, len, 0, nullptr, nullptr);
      });

  core::DataMsg data;
  data.seq = 1;
  ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 16, "data", 0);
  rt.after(util::milliseconds(150), [&] { rt.stop(); });
  rt.run_for(util::seconds(2));

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(udp.stats().recv_unknown_peer, 1u);
}

// --- UdpTransport batching --------------------------------------------------

TEST(UdpTransport, CoalescesFramesIntoOneBatchDatagram) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport::Config cfg = two_host_config();
  cfg.coalesce.flush_delay = util::milliseconds(20);
  cfg.coalesce.max_bytes = 1200;
  UdpTransport udp(rt, codec, cfg);

  std::vector<util::Seq> got;
  udp.attach(HostId{1}, [&](const net::Delivery& d) {
    if (const auto* m = std::any_cast<core::ProtocolMessage>(&d.payload)) {
      if (const auto* data = std::get_if<core::DataMsg>(m)) {
        got.push_back(data->seq);
      }
    }
    if (got.size() == 4) rt.stop();
  });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  for (util::Seq seq = 1; seq <= 4; ++seq) {
    core::DataMsg data;
    data.seq = seq;
    data.body = "m" + std::to_string(seq);
    ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 32, "data", 0);
  }
  rt.run_for(util::seconds(5));

  // All four frames arrive, in enqueue order, out of ONE wire datagram.
  EXPECT_EQ(got, (std::vector<util::Seq>{1, 2, 3, 4}));
  EXPECT_EQ(udp.stats().datagrams_sent, 1u);
  EXPECT_EQ(udp.stats().datagrams_received, 1u);
  const Coalescer::Stats stats = udp.coalescer_stats();
  EXPECT_EQ(stats.frames_enqueued, 4u);
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
}

TEST(UdpTransport, BatchBudgetOverflowFlushesEarly) {
  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport::Config cfg = two_host_config();
  cfg.coalesce.flush_delay = util::milliseconds(20);
  // Room for one encoded DataMsg frame but not two: the second enqueue
  // must push the first out as a size flush instead of overflowing.
  cfg.coalesce.max_bytes = 70;
  UdpTransport udp(rt, codec, cfg);

  int delivered = 0;
  udp.attach(HostId{1}, [&](const net::Delivery&) {
    if (++delivered == 2) rt.stop();
  });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  for (util::Seq seq = 1; seq <= 2; ++seq) {
    core::DataMsg data;
    data.seq = seq;
    data.body = "x";
    ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 32, "data", 0);
  }
  rt.run_for(util::seconds(5));

  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(udp.stats().datagrams_sent, 2u);
  const Coalescer::Stats stats = udp.coalescer_stats();
  EXPECT_EQ(stats.frames_enqueued, 2u);
  EXPECT_EQ(stats.batches_flushed, 2u);
  EXPECT_EQ(stats.size_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
}

TEST(UdpTransport, ImpairmentDrawsOncePerDatagramAndCountsFrames) {
  // Pin the draw order: batching must consume ONE impairment plan per
  // datagram, not one per frame, and the impair_* stats must count the
  // contained frames. A reference Impairment with the same seed predicts
  // the exact fate of each of the two batches below.
  ImpairmentConfig icfg;
  icfg.loss = 0.5;
  icfg.seed = 7;
  Impairment ref(icfg);
  const bool first_dropped = ref.next().dropped;
  const bool second_dropped = ref.next().dropped;

  util::RealTimeScheduler rt;
  const core::ProtocolCodec codec;
  UdpTransport::Config cfg = two_host_config();
  cfg.impairment = icfg;
  cfg.coalesce.flush_delay = util::milliseconds(20);
  cfg.coalesce.max_bytes = 1200;
  UdpTransport udp(rt, codec, cfg);

  int delivered = 0;
  udp.attach(HostId{1}, [&](const net::Delivery&) { ++delivered; });
  net::HostEndpoint& ep0 = udp.attach(HostId{0}, [](const net::Delivery&) {});

  const auto send_one = [&](util::Seq seq) {
    core::DataMsg data;
    data.seq = seq;
    ep0.send(HostId{1}, std::any{core::ProtocolMessage{data}}, 16, "data", 0);
  };
  // Batch 1: three frames. Batch 2 (after the first deadline flush): two.
  rt.after(util::milliseconds(1), [&] {
    send_one(1);
    send_one(2);
    send_one(3);
  });
  rt.after(util::milliseconds(100), [&] {
    send_one(4);
    send_one(5);
  });
  rt.after(util::milliseconds(300), [&] { rt.stop(); });
  rt.run_for(util::seconds(5));

  const std::uint64_t expected_drops =
      (first_dropped ? 3u : 0u) + (second_dropped ? 2u : 0u);
  EXPECT_EQ(udp.stats().impair_drops, expected_drops);
  EXPECT_EQ(udp.stats().datagrams_sent,
            (first_dropped ? 0u : 1u) + (second_dropped ? 0u : 1u));
  EXPECT_EQ(delivered,
            (first_dropped ? 0 : 3) + (second_dropped ? 0 : 2));
  const Coalescer::Stats stats = udp.coalescer_stats();
  EXPECT_EQ(stats.frames_enqueued, 5u);
  EXPECT_EQ(stats.batches_flushed, 2u);
}

// --- impairment -------------------------------------------------------------

TEST(Impairment, SameSeedSamePlanSequence) {
  ImpairmentConfig cfg;
  cfg.loss = 0.2;
  cfg.duplicate = 0.15;
  cfg.reorder = 0.3;
  cfg.seed = 99;
  Impairment a(cfg);
  Impairment b(cfg);
  int drops = 0;
  int dups = 0;
  int delays = 0;
  for (int i = 0; i < 5000; ++i) {
    const ImpairmentPlan pa = a.next();
    const ImpairmentPlan pb = b.next();
    EXPECT_EQ(pa.dropped, pb.dropped);
    EXPECT_EQ(pa.copies, pb.copies);
    EXPECT_EQ(pa.delay[0], pb.delay[0]);
    EXPECT_EQ(pa.delay[1], pb.delay[1]);
    if (pa.dropped) ++drops;
    if (pa.copies > 1) ++dups;
    if (pa.delay[0] > 0 || pa.delay[1] > 0) ++delays;
    for (int c = 0; c < ImpairmentPlan::kMaxCopies; ++c) {
      EXPECT_GE(pa.delay[c], 0);
      EXPECT_LE(pa.delay[c], cfg.delay_max);
    }
  }
  // All three knobs actually fire at roughly their configured rates.
  EXPECT_GT(drops, 5000 / 10);
  EXPECT_GT(dups, 5000 / 20);
  EXPECT_GT(delays, 5000 / 10);
}

TEST(Impairment, DisabledConfigMeansCleanPlans) {
  const ImpairmentConfig clean;
  EXPECT_FALSE(clean.enabled());
  ImpairmentConfig lossy;
  lossy.loss = 0.01;
  EXPECT_TRUE(lossy.enabled());
}

}  // namespace
}  // namespace rbcast::transport
