// Multiple-source broadcast (Section 2).
//
// "Here, we study only a single-source broadcast problem. However, a
//  multiple-source broadcast can be performed reliably by running several
//  identical single-source protocols suggested in the present paper. From
//  the point of view of efficiency this option also appears to be a
//  reasonable one."
//
// MultiSourceNode does exactly that: it runs one independent BroadcastHost
// instance per source on each host, multiplexed over the host's single
// transport attachment. Each instance maintains its own host parent graph
// (rooted at its source), its own INFO/MAP state and its own periodic
// activities; messages are tagged with the owning source on the wire.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "core/config.h"
#include "net/message.h"
#include "transport/transport.h"
#include "util/scheduler.h"
#include "util/rng.h"

namespace rbcast::core {

// Wire envelope: which single-source protocol instance a message belongs
// to. (In a real deployment this is a demux field in the packet header.)
struct MuxMessage {
  HostId stream_source;
  ProtocolMessage inner;
};

class MultiSourceNode {
 public:
  // Called on first delivery of each (source, seq) pair at this host.
  using AppDeliverFn =
      std::function<void(HostId source, Seq seq, std::string_view body)>;

  // `sources` lists every broadcast stream in the system (each must be a
  // member of `all_hosts`); a protocol instance is created for each.
  // Attaches `self` to `transport` (which must outlive this object) once
  // for all streams; the destructor detaches.
  MultiSourceNode(transport::Transport& transport, HostId self,
                  std::vector<HostId> sources, std::vector<HostId> all_hosts,
                  const Config& config, const util::RngFactory& rngs,
                  AppDeliverFn app_deliver = {});
  ~MultiSourceNode();

  MultiSourceNode(const MultiSourceNode&) = delete;
  MultiSourceNode& operator=(const MultiSourceNode&) = delete;

  // Arms every instance's periodic activities.
  void start();

  // Transport upcall: demultiplexes to the owning instance.
  void on_delivery(const net::Delivery& delivery);

  // Broadcasts on this host's own stream. Precondition: is_source().
  Seq broadcast(std::string body);

  [[nodiscard]] HostId self() const { return endpoint_.self(); }
  [[nodiscard]] bool is_source() const {
    return instances_.contains(self());
  }

  // The single-source protocol instance for `source`'s stream.
  [[nodiscard]] BroadcastHost& instance(HostId source);
  [[nodiscard]] const BroadcastHost& instance(HostId source) const;

  [[nodiscard]] const std::vector<HostId>& sources() const {
    return sources_;
  }

  // True iff this host holds messages 1..n of every stream, where n is
  // each stream's known maximum.
  [[nodiscard]] std::size_t total_deliveries() const;

 private:
  // One stream's view of the host's transport, handed to that stream's
  // BroadcastHost: scheduler() is the real one, attach() records the
  // instance's upcall (what on_delivery routes the stream's messages to)
  // and returns this object as the endpoint, which wraps every outgoing
  // protocol message into a MuxMessage envelope on the shared endpoint.
  class MuxTransport final : public transport::Transport,
                             public net::HostEndpoint {
   public:
    MuxTransport(transport::Transport& real, net::HostEndpoint& endpoint,
                 HostId stream_source)
        : real_(real), endpoint_(endpoint), stream_source_(stream_source) {}

    [[nodiscard]] util::Scheduler& scheduler() override {
      return real_.scheduler();
    }
    net::HostEndpoint& attach(HostId host, net::DeliveryFn deliver) override;
    void detach(HostId /*host*/) override { deliver_ = nullptr; }

    [[nodiscard]] HostId self() const override { return endpoint_.self(); }
    void send(HostId to, std::any payload, std::size_t bytes,
              std::string kind, net::TraceId trace_id) override;

    void deliver(const net::Delivery& delivery) const;

   private:
    transport::Transport& real_;
    net::HostEndpoint& endpoint_;
    HostId stream_source_;
    net::DeliveryFn deliver_;
  };

  transport::Transport& transport_;
  std::vector<HostId> sources_;
  AppDeliverFn app_deliver_;
  // Initialized after sources_ is validated, so a rejected construction
  // never leaves `self` attached.
  net::HostEndpoint& endpoint_;
  // Keyed by source id; iteration order deterministic. The mux transports
  // are declared first so they outlive the instances that detach from
  // them.
  std::map<HostId, std::unique_ptr<MuxTransport>> streams_;
  std::map<HostId, std::unique_ptr<BroadcastHost>> instances_;
};

}  // namespace rbcast::core
