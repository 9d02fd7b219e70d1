// The complete communication subnetwork, as the hosts see it.
//
// Ties together links, servers and routing into the service interface the
// paper postulates: a host can request delivery of a message to a single
// destination, and a received message carries the cost bit. Everything else
// — loss, duplication, reordering, link failures, routing transients — is
// invisible to the application, exactly as assumed in Section 2.
//
// In-flight slab: a packet crossing a link lives in a network-owned slot
// vector, not in the scheduled closure. The arrival event captures only
// `[this, slot]`, which std::function stores inline. A packet keeps its
// slot from its first hop to its last: each hop updates it in place and
// re-arms the slot's event, and only a spontaneous duplicate copies it
// into a second slot. The final hop moves it out for the upcall, which may
// send and so grow the slab. Freed slots are recycled through an
// intrusive free list, so once the slab has grown to the run's peak
// in-flight count a hop allocates nothing. Each slot records its link and
// arrival event, which is how a failing link cancels exactly what is in
// flight on it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/link.h"
#include "net/message.h"
#include "net/routing.h"
#include "net/server.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace rbcast::net {

struct NetConfig {
  // Delay between a link state change and routes reflecting it.
  sim::Duration convergence_lag{sim::milliseconds(200)};
  // Per-hop uniform random extra delay in [0, jitter_max]; produces the
  // out-of-order arrivals the paper's failure model includes.
  sim::Duration jitter_max{sim::microseconds(500)};
  // Hop budget; loops during routing transients die here.
  int ttl{64};
  // Finite output buffering: a packet whose serialization backlog on a
  // link direction would exceed this is tail-dropped (real servers do not
  // queue unboundedly). Generous default so only genuine congestion
  // collapse triggers it.
  sim::Duration max_queue_delay{sim::seconds(60)};
  // Fixed per-datagram framing cost (UDP/IP-style headers) added to every
  // transmission's byte charge. 0 — the default, and what the determinism
  // digests are pinned under — models the pre-batching world where only
  // payload bytes count; the overload benchmarks set ~28 so that
  // coalescing many small frames into one datagram actually amortizes
  // something, as it does on real networks.
  std::size_t per_packet_overhead_bytes{0};
};

class Network {
 public:
  Network(sim::Simulator& simulator, const topo::Topology& topology,
          NetConfig config, const util::RngFactory& rngs);

  ~Network();  // out of line: Endpoint is an incomplete type here

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- host side ----------------------------------------------------------

  // Registers (or replaces) the delivery upcall for `host`; call it before
  // any message addressed to it is sent. This and endpoint() are the
  // backing of transport::SimTransport, the only caller in src/ —
  // protocol code attaches through the Transport seam instead.
  void register_host(HostId host, DeliveryFn deliver);

  // The sending interface handed to the protocol instance running on
  // `host`. Valid for the lifetime of the Network.
  [[nodiscard]] HostEndpoint& endpoint(HostId host);

  // Requests unicast delivery (what endpoint() forwards to).
  void send(HostId from, HostId to, std::any payload, std::size_t bytes,
            std::string kind, TraceId trace_id = 0);

  // --- fault control (used by FaultPlan) -----------------------------------

  void set_link_up(LinkId link, bool up);
  [[nodiscard]] bool link_up(LinkId link) const;

  // Bumped on every effective link state change; lets observers cache
  // cluster/connectivity computations between changes.
  [[nodiscard]] std::uint64_t topology_epoch() const { return epoch_; }

  // --- ground truth queries (metrics, tests, benches — NOT the protocol) ---

  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] std::vector<std::vector<HostId>> clusters() const;
  [[nodiscard]] std::vector<int> host_cluster_index() const;
  [[nodiscard]] bool same_cluster(HostId x, HostId y) const;
  [[nodiscard]] bool connected(HostId x, HostId y) const;

  [[nodiscard]] Routing& routing() { return routing_; }
  [[nodiscard]] const Server& server(ServerId id) const;

  // Installs the metrics observer (nullptr to remove).
  void set_observer(NetObserver* observer) { observer_ = observer; }

  // Packets currently crossing a link (every copy counts).
  [[nodiscard]] std::size_t in_flight() const;
  // In-flight slots ever allocated; the high-water mark of in_flight(),
  // since freed slots are reused.
  [[nodiscard]] std::size_t in_flight_capacity() const {
    return inflight_.size();
  }

 private:
  struct Packet {
    Delivery d;
    ServerId at{kNoServer};
    int ttl{0};
  };

  // One slab slot. `link` is kNoLink while the slot is free.
  struct InFlight {
    Packet packet;
    LinkId link{kNoLink};
    sim::EventId event{};
    bool to_host{false};  // last hop: hand to the destination on arrival
    std::uint32_t next_free{0};
  };

  class Endpoint;

  LinkState& link_state(LinkId id);
  [[nodiscard]] const LinkState& link_state(LinkId id) const;
  void drop(const Delivery& d, DropReason reason);
  [[nodiscard]] sim::Duration jitter();

  // Takes a slot off the free list, growing the slab when it is empty.
  std::uint32_t acquire();
  // Puts the packet in `slot` on `link`: its `tx.copies` copies (1 or 2)
  // each arrive at their `tx.arrival_offset` plus jitter, at the far
  // server, or at the destination host when `to_host`. A duplicate is
  // copied into a second slot and scheduled first. If the link goes down
  // first, they are lost with everything else in flight on it.
  void forward(std::uint32_t slot, LinkId link, const LinkState::TxResult& tx,
               bool to_host);
  void arm(std::uint32_t slot, LinkId link, sim::Duration offset,
           bool to_host);
  // Arrival event of slab slot `slot`: the next hop, in place, or the
  // upcall.
  void land(std::uint32_t slot);
  // Reports the packet in `slot` as dropped, destroys it and frees the
  // slot.
  void discard(std::uint32_t slot, DropReason reason);
  // Frees `slot`, whose packet has been moved out or destroyed.
  void release(std::uint32_t slot);

  sim::Simulator& simulator_;
  const topo::Topology& topology_;
  NetConfig config_;
  NetObserver* observer_{nullptr};

  std::vector<LinkState> links_;
  Routing routing_;
  std::vector<Server> servers_;
  std::vector<DeliveryFn> deliver_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  util::Rng jitter_rng_;
  std::uint64_t epoch_{0};
  // The in-flight slab and the head of its free list (kNoSlot when empty).
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<InFlight> inflight_;
  std::uint32_t free_head_{kNoSlot};
};

}  // namespace rbcast::net
