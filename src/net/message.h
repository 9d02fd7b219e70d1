// What the network carries between hosts.
//
// Per the paper's Section 2, the only service hosts get is single-
// destination delivery: a host hands its server a message for one other
// host. The network annotates each delivery with the *cost bit* — "whether
// the message ... traversed an expensive link on its way" — which is the
// only dynamic information the broadcast application may use.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"
#include "util/ids.h"

namespace rbcast::net {

// Causal trace id: tags every copy, relay and gap-fill of one broadcast
// message so its full lineage can be reconstructed from a trace. Packed
// as (source host + 1) in the high bits and the sequence number in the
// low 40; 0 means "untraced" (control traffic). Purely observational —
// the protocol itself never reads it.
using TraceId = std::uint64_t;

inline constexpr int kTraceSeqBits = 40;

[[nodiscard]] constexpr TraceId make_trace_id(HostId source,
                                              std::uint64_t seq) {
  return (static_cast<TraceId>(source.value + 1) << kTraceSeqBits) |
         (seq & ((TraceId{1} << kTraceSeqBits) - 1));
}

[[nodiscard]] constexpr std::uint64_t trace_seq(TraceId id) {
  return id & ((TraceId{1} << kTraceSeqBits) - 1);
}

[[nodiscard]] constexpr HostId trace_source(TraceId id) {
  return HostId{static_cast<HostId::value_type>(id >> kTraceSeqBits) - 1};
}

// A message as seen by the receiving host.
struct Delivery {
  HostId from;
  HostId to;
  // The cost bit: true iff any hop of the path was an expensive link.
  bool expensive{false};
  // Protocol-defined content; the network treats it as opaque.
  std::any payload;
  // Wire size used for transmission-time and accounting purposes.
  std::size_t bytes{0};
  // Metrics label chosen by the sender ("data", "info", "gapfill", ...).
  std::string kind;
  sim::TimePoint sent_at{0};
  int hops{0};
  // Causal trace id chosen by the sender; 0 when untraced.
  TraceId trace_id{0};
};

using DeliveryFn = std::function<void(const Delivery&)>;

enum class DropReason {
  kLinkDown,       // the link was down when the packet reached it
  kRandomLoss,     // silent loss on an operational link
  kNoRoute,        // routing has no path (partition or pre-convergence)
  kTtlExceeded,    // routing transient caused a loop
  kQueueOverflow,  // finite output buffer full (tail drop)
};

[[nodiscard]] constexpr const char* to_string(DropReason r) {
  switch (r) {
    case DropReason::kLinkDown:
      return "link_down";
    case DropReason::kRandomLoss:
      return "random_loss";
    case DropReason::kNoRoute:
      return "no_route";
    case DropReason::kTtlExceeded:
      return "ttl_exceeded";
    case DropReason::kQueueOverflow:
      return "queue_overflow";
  }
  return "?";
}

// Observation hooks for the metrics layer. All methods have empty default
// implementations so observers override only what they need.
class NetObserver {
 public:
  virtual ~NetObserver() = default;
  // A host handed a message to its server.
  virtual void on_host_send(const Delivery&) {}
  // A message reached its destination host.
  virtual void on_deliver(const Delivery&) {}
  // A message (or a copy of it) died in the network. Silent: the paper's
  // network reports nothing to the application.
  virtual void on_drop(const Delivery&, DropReason) {}
  // One transmission of the message over one link (per copy).
  virtual void on_link_transmit(LinkId, const Delivery&) {}
  // Serialization backlog observed when a packet was queued on an outgoing
  // link direction of `server` (source-congestion experiment, E5).
  virtual void on_queue_backlog(ServerId, LinkId,
                                sim::Duration /*backlog*/) {}
};

// Broadcasts every network event to several observers in registration
// order; lets the metrics registry and a trace tap watch the same network.
// Observers are borrowed and must outlive the fanout's installation.
class NetObserverFanout final : public NetObserver {
 public:
  void add(NetObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  void on_host_send(const Delivery& d) override {
    for (NetObserver* o : observers_) o->on_host_send(d);
  }
  void on_deliver(const Delivery& d) override {
    for (NetObserver* o : observers_) o->on_deliver(d);
  }
  void on_drop(const Delivery& d, DropReason reason) override {
    for (NetObserver* o : observers_) o->on_drop(d, reason);
  }
  void on_link_transmit(LinkId link, const Delivery& d) override {
    for (NetObserver* o : observers_) o->on_link_transmit(link, d);
  }
  void on_queue_backlog(ServerId server, LinkId link,
                        sim::Duration backlog) override {
    for (NetObserver* o : observers_) o->on_queue_backlog(server, link, backlog);
  }

 private:
  std::vector<NetObserver*> observers_;
};

// The sending interface a protocol host holds, handed out by
// transport::Transport::attach: the Network-backed implementation in
// simulation, a socket binding over UDP, or the scripted fake protocol
// unit tests use (tests/support/fake_network.h).
class HostEndpoint {
 public:
  virtual ~HostEndpoint() = default;
  [[nodiscard]] virtual HostId self() const = 0;
  // Requests unicast delivery of `payload` to host `to`. Fire-and-forget:
  // there is no error result, because the paper's network never reports
  // loss or failure to the application. `trace_id` (0 = untraced) is
  // carried on the Delivery for causal tracing; it never affects routing
  // or protocol behavior.
  virtual void send(HostId to, std::any payload, std::size_t bytes,
                    std::string kind, TraceId trace_id = 0) = 0;
};

}  // namespace rbcast::net
