// UdpTransport — the Transport over real nonblocking UDP sockets.
//
// Runs the protocol on the network the paper assumed all along: unreliable
// single-destination datagrams. Each attached host gets its own socket
// (bound to the address the peer table names for it), datagrams carry a
// transport::Frame around a codec-encoded payload, and readiness is driven
// by util::RealTimeScheduler's poll loop — everything stays on one thread,
// so the protocol code runs under exactly the concurrency model the
// simulator gave it.
//
// One UdpTransport can host any subset of the topology: one host per
// process for a real deployment (rbcast_node), or all of them in one
// process for the localhost integration test. The seeded impairment shim
// (impairment.h) applies loss/duplication/reordering at send time, so
// tests get the paper's failure model without `tc`.
//
// Untrusted input: every incoming datagram is decoded defensively. Frame-
// level garbage is counted in Stats and dropped here; a valid frame whose
// payload fails the codec is delivered with an EMPTY std::any so the
// protocol layer can count it (BroadcastHost::Counters::decode_errors)
// and drop it.
#pragma once

#include <netinet/in.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <functional>

#include "net/message.h"
#include "transport/coalescer.h"
#include "transport/impairment.h"
#include "transport/wire.h"
#include "transport/transport.h"
#include "util/ids.h"
#include "util/metrics_registry.h"
#include "util/real_time_scheduler.h"

namespace rbcast::transport {

class UdpTransport final : public Transport {
 public:
  // Where each host of the topology listens. Port 0 (test convenience)
  // binds an ephemeral port at attach(); local_port() reads the result
  // back, and the local peer table is updated automatically.
  struct Peer {
    HostId host{kNoHost};
    std::string addr{"127.0.0.1"};
    std::uint16_t port{0};
  };

  struct Config {
    std::vector<Peer> peers;
    ImpairmentConfig impairment{};
    // Per-destination outbound batching; disabled (flush_delay 0) sends
    // every frame as its own version-1 datagram, exactly as before.
    CoalescerConfig coalesce{};
  };

  struct Stats {
    std::uint64_t datagrams_sent{0};
    std::uint64_t datagrams_received{0};
    std::uint64_t frame_decode_errors{0};   // garbage/truncated/bad version
    std::uint64_t payload_decode_errors{0}; // frame ok, codec rejected body
    std::uint64_t misdirected{0};           // frame.to is not the socket owner
    std::uint64_t send_errors{0};           // unknown peer or sendto failure
    // Hard recvfrom errors (not EAGAIN/EWOULDBLOCK, not EINTR): counted
    // so a sick socket is distinguishable from a drained one.
    std::uint64_t recv_errors{0};
    // Datagrams whose source (address, port) matches no configured peer
    // binding: dropped before any decoding — an unsolicited sender gets
    // no parser surface at all, only this counter.
    std::uint64_t recv_unknown_peer{0};
    // Impairment stats count CONTAINED FRAMES, not datagrams: dropping a
    // batch of 5 loses 5 frames, and the sim-vs-real comparison reasons
    // about frames. (With batching off the two units coincide.)
    std::uint64_t impair_drops{0};
    std::uint64_t impair_duplicates{0};
    std::uint64_t impair_delays{0};
  };

  // `scheduler` and `codec` must outlive this object.
  UdpTransport(util::RealTimeScheduler& scheduler, const PayloadCodec& codec,
               Config config);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  [[nodiscard]] util::Scheduler& scheduler() override;

  // Opens and binds this host's socket; throws std::runtime_error when the
  // host is not in the peer table or the bind fails.
  net::HostEndpoint& attach(HostId host, net::DeliveryFn deliver) override;

  void detach(HostId host) override;

  // The port `host`'s socket actually bound (resolves port-0 configs).
  [[nodiscard]] std::uint16_t local_port(HostId host) const;

  // Updates where datagrams for `host` are sent (multi-process setups
  // learning ephemeral ports out of band).
  void set_peer_port(HostId host, std::uint16_t port);

  // Observes send/deliver/drop exactly like net::Network's observer hook,
  // so trace::NetTap gives real runs the same JSONL schema as simulated
  // ones (nullptr to remove).
  void set_observer(net::NetObserver* observer) { observer_ = observer; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  // Aggregate coalescer stats over attached hosts (zeros when batching is
  // off).
  [[nodiscard]] Coalescer::Stats coalescer_stats() const;

  // Frames currently queued across all hosts' coalescers (0 when batching
  // is off) — the admin plane's queue-depth gauge.
  [[nodiscard]] std::size_t coalescer_pending_frames() const;

  // Registers every Stats field plus the shared transport.coalescer.*
  // series into `registry` as callback-backed instruments. The transport
  // must outlive any snapshot taken from `registry`.
  void register_metrics(util::MetricsRegistry& registry);

  // Test seam for the receive loop: replaces ::recvfrom so regression
  // tests can inject EINTR, EAGAIN, hard errno values and spoofed source
  // addresses. The callable must behave like recvfrom(fd, buf, len, 0,
  // (sockaddr*)src, ...): return the datagram size (filling `src` with
  // the claimed sender, which the unknown-peer filter then judges), or -1
  // with errno set. A callable that leaves `src` untouched simulates an
  // unconfigured sender (the struct arrives zeroed).
  using RecvFn = std::function<ssize_t(int fd, void* buf, std::size_t len,
                                       sockaddr_in* src)>;
  void set_recv_fn_for_test(RecvFn fn) { recv_fn_ = std::move(fn); }

 private:
  class Binding;
  struct PeerState;

  void send_from(Binding& from, HostId to, std::any payload,
                 std::size_t bytes, std::string kind, net::TraceId trace_id);
  // Coalescer flush: materialises one datagram from `items`, draws the
  // impairment plan once for it, and counts impairment per contained frame.
  void flush_from(Binding& from, HostId to,
                  std::span<Coalescer::Item> items);
  // `frames` is the contained-frame count for impairment accounting; `d`
  // (unbatched path only) lets the observer see impairment drops.
  void send_datagram(Binding& from, const PeerState& dest,
                     const std::string& datagram, std::size_t frames,
                     const net::Delivery* d = nullptr);
  void transmit(int fd, const PeerState& dest, const std::string& datagram);
  void on_readable(Binding& binding);
  void deliver_frame(Binding& binding, Frame frame, std::size_t wire_bytes);
  [[nodiscard]] PeerState* find_peer(HostId host);
  [[nodiscard]] const PeerState* find_peer(HostId host) const;
  // True when `src` matches a configured peer binding with a known port.
  [[nodiscard]] bool known_source(const sockaddr_in& src) const;

  util::RealTimeScheduler& scheduler_;
  const PayloadCodec& codec_;
  ImpairmentConfig impairment_config_;
  CoalescerConfig config_coalesce_;
  std::unique_ptr<Impairment> impairment_;  // null when not enabled
  net::NetObserver* observer_{nullptr};
  std::vector<std::unique_ptr<PeerState>> peers_;
  // Ordered by host id so shutdown order is deterministic.
  std::map<std::int32_t, std::unique_ptr<Binding>> bindings_;
  Stats stats_;
  RecvFn recv_fn_;  // test-only recvfrom replacement; empty in production
};

}  // namespace rbcast::transport
