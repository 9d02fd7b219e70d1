#include "net/network.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"
#include "util/logging.h"

namespace rbcast::net {

class Network::Endpoint final : public HostEndpoint {
 public:
  Endpoint(Network& network, HostId self) : network_(network), self_(self) {}

  [[nodiscard]] HostId self() const override { return self_; }

  void send(HostId to, std::any payload, std::size_t bytes,
            std::string kind, TraceId trace_id) override {
    network_.send(self_, to, std::move(payload), bytes, std::move(kind),
                  trace_id);
  }

 private:
  Network& network_;
  HostId self_;
};

Network::Network(sim::Simulator& simulator, const topo::Topology& topology,
                 NetConfig config, const util::RngFactory& rngs)
    : simulator_(simulator),
      topology_(topology),
      config_(config),
      routing_(simulator, topology,
               [this](LinkId id) { return link_up(id); },
               config.convergence_lag),
      jitter_rng_(rngs.stream("net.jitter")) {
  RBCAST_CHECK_ARG(config.ttl >= 1, "ttl must be at least 1");
  RBCAST_CHECK_ARG(config.jitter_max >= 0, "negative jitter");
  RBCAST_CHECK_ARG(config.max_queue_delay > 0,
                   "max_queue_delay must be positive");
  links_.reserve(topology.link_count());
  for (const topo::LinkSpec& spec : topology.links()) {
    links_.emplace_back(spec, rngs.stream("net.link", spec.id.value),
                        config.per_packet_overhead_bytes);
  }
  routing_.recompute_now();
  servers_.reserve(topology.server_count());
  for (const topo::ServerSpec& s : topology.servers()) {
    servers_.emplace_back(s.id, topology, routing_);
  }
  deliver_.resize(topology.host_count());
  endpoints_.resize(topology.host_count());
  for (const topo::HostSpec& h : topology.hosts()) {
    endpoints_[static_cast<std::size_t>(h.id.value)] =
        std::make_unique<Endpoint>(*this, h.id);
  }
}

Network::~Network() = default;

void Network::register_host(HostId host, DeliveryFn deliver) {
  RBCAST_CHECK_ARG(
      host.valid() && static_cast<std::size_t>(host.value) < deliver_.size(),
      "register_host: unknown host");
  RBCAST_CHECK_ARG(deliver != nullptr, "register_host: null delivery fn");
  deliver_[static_cast<std::size_t>(host.value)] = std::move(deliver);
}

HostEndpoint& Network::endpoint(HostId host) {
  RBCAST_ASSERT(host.valid() &&
                static_cast<std::size_t>(host.value) < endpoints_.size());
  return *endpoints_[static_cast<std::size_t>(host.value)];
}

LinkState& Network::link_state(LinkId id) {
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < links_.size());
  return links_[static_cast<std::size_t>(id.value)];
}

const LinkState& Network::link_state(LinkId id) const {
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < links_.size());
  return links_[static_cast<std::size_t>(id.value)];
}

sim::Duration Network::jitter() {
  if (config_.jitter_max <= 0) return 0;
  return jitter_rng_.uniform_int(0, config_.jitter_max);
}

std::uint32_t Network::acquire() {
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = inflight_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.emplace_back();
  }
  return slot;
}

void Network::forward(std::uint32_t slot, LinkId link,
                      const LinkState::TxResult& tx, bool to_host) {
  if (tx.copies == 2) {
    // Only a spontaneous duplicate costs a copy. acquire() may grow the
    // slab, so the source slot is indexed afresh.
    const std::uint32_t copy = acquire();
    inflight_[copy].packet = inflight_[slot].packet;
    arm(copy, link, tx.arrival_offset[0], to_host);
  }
  arm(slot, link, tx.arrival_offset[tx.copies - 1], to_host);
}

void Network::arm(std::uint32_t slot, LinkId link, sim::Duration offset,
                  bool to_host) {
  InFlight& f = inflight_[slot];
  f.link = link;
  f.to_host = to_host;
  f.event = simulator_.after(offset + jitter(), [this, slot] { land(slot); });
}

void Network::release(std::uint32_t slot) {
  InFlight& f = inflight_[slot];
  f.link = kNoLink;
  f.event = sim::EventId{};
  f.next_free = free_head_;
  free_head_ = slot;
}

void Network::discard(std::uint32_t slot, DropReason reason) {
  drop(inflight_[slot].packet.d, reason);
  inflight_[slot].packet = Packet{};
  release(slot);
}

std::size_t Network::in_flight() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      inflight_, [](const InFlight& f) { return f.link.valid(); }));
}

void Network::send(HostId from, HostId to, std::any payload,
                   std::size_t bytes, std::string kind, TraceId trace_id) {
  RBCAST_CHECK_ARG(from.valid() && to.valid() && from != to,
                   "send: bad endpoints");
  Packet p;
  p.d = Delivery{.from = from,
                 .to = to,
                 .expensive = false,
                 .payload = std::move(payload),
                 .bytes = bytes,
                 .kind = std::move(kind),
                 .sent_at = simulator_.now(),
                 .hops = 0,
                 .trace_id = trace_id};
  p.ttl = config_.ttl;

  if (observer_ != nullptr) observer_->on_host_send(p.d);

  const topo::HostSpec& hs = topology_.host(from);
  LinkState& access = link_state(hs.access_link);
  if (!access.up()) {
    drop(p.d, DropReason::kLinkDown);
    return;
  }
  if (access.queue_backlog(0, simulator_.now()) > config_.max_queue_delay) {
    drop(p.d, DropReason::kQueueOverflow);
    return;
  }
  // Direction 0 of an access link is host -> server.
  const auto tx = access.transmit(bytes, 0, simulator_.now());
  if (observer_ != nullptr) {
    observer_->on_queue_backlog(hs.server, hs.access_link, tx.queue_wait);
  }
  if (tx.copies == 0) {
    drop(p.d, DropReason::kRandomLoss);
    return;
  }
  p.at = hs.server;
  ++p.d.hops;
  const std::uint32_t slot = acquire();
  inflight_[slot].packet = std::move(p);
  forward(slot, hs.access_link, tx, false);
}

void Network::land(std::uint32_t slot) {
  if (inflight_[slot].to_host) {
    // Moved out first: the upcall may send, which can grow the slab and
    // reuse this slot.
    const Packet p = std::move(inflight_[slot].packet);
    release(slot);
    const auto idx = static_cast<std::size_t>(p.d.to.value);
    RBCAST_ASSERT_MSG(deliver_[idx] != nullptr,
                      "message addressed to unregistered host");
    if (observer_ != nullptr) observer_->on_deliver(p.d);
    deliver_[idx](p.d);
    return;
  }
  // Arrived at server p.at. Only forward() grows the slab (observers
  // watch; they never send), so `p` stays valid up to that call.
  Packet& p = inflight_[slot].packet;
  const topo::HostSpec& dst = topology_.host(p.d.to);
  if (p.at == dst.server) {
    LinkState& access = link_state(dst.access_link);
    if (!access.up()) {
      discard(slot, DropReason::kLinkDown);
      return;
    }
    // Direction 1 of an access link is server -> host.
    const auto tx = access.transmit(p.d.bytes, 1, simulator_.now());
    if (tx.copies == 0) {
      discard(slot, DropReason::kRandomLoss);
      return;
    }
    // Spontaneous duplication on the last hop delivers the message twice —
    // the protocol must cope, so keep both copies.
    ++p.d.hops;
    forward(slot, dst.access_link, tx, true);
    return;
  }
  if (--p.ttl <= 0) {
    discard(slot, DropReason::kTtlExceeded);
    return;
  }
  Server& here = servers_[static_cast<std::size_t>(p.at.value)];
  const auto choice = here.choose_link(
      dst.server, [this](LinkId id) { return link_up(id); });
  if (!choice.link.valid()) {
    discard(slot,
            choice.had_route ? DropReason::kLinkDown : DropReason::kNoRoute);
    return;
  }
  here.count_forwarded();

  LinkState& ls = link_state(choice.link);
  const int dir = ls.direction_from(p.at);
  if (ls.queue_backlog(dir, simulator_.now()) > config_.max_queue_delay) {
    discard(slot, DropReason::kQueueOverflow);
    return;
  }
  const auto tx = ls.transmit(p.d.bytes, dir, simulator_.now());
  if (observer_ != nullptr) {
    observer_->on_queue_backlog(p.at, choice.link, tx.queue_wait);
    observer_->on_link_transmit(choice.link, p.d);
  }
  if (tx.copies == 0) {
    discard(slot, DropReason::kRandomLoss);
    return;
  }
  p.at = ls.spec().other_end(p.at);
  p.d.expensive =
      p.d.expensive || ls.spec().link_class == topo::LinkClass::kExpensive;
  ++p.d.hops;
  forward(slot, choice.link, tx, false);
}

void Network::drop(const Delivery& d, DropReason reason) {
  RBCAST_DEBUG("drop " << d.kind << " " << d.from << "->" << d.to << ": "
                       << to_string(reason));
  if (observer_ != nullptr) observer_->on_drop(d, reason);
}

void Network::set_link_up(LinkId link, bool up) {
  LinkState& ls = link_state(link);
  if (ls.up() == up) return;
  ls.set_up(up);
  ++epoch_;
  if (!up) {
    // A failing link loses everything in flight on it, silently — the
    // paper's failure model ("messages can ... be lost at any point").
    for (std::uint32_t slot = 0; slot < inflight_.size(); ++slot) {
      InFlight& f = inflight_[slot];
      if (f.link != link) continue;
      simulator_.cancel(f.event);
      f.packet = Packet{};
      release(slot);
    }
  }
  if (!ls.spec().is_access) {
    routing_.notify_change();
  }
}

bool Network::link_up(LinkId link) const { return link_state(link).up(); }

sim::Duration Network::wire_time(LinkId link, int dir) const {
  return link_state(link).wire_time(dir, simulator_.now());
}

void Network::refresh_cluster_index() const {
  cluster_index_ = topology_.host_cluster_index(
      [this](LinkId id) { return link_up(id); });
  cluster_epoch_ = epoch_;
}

std::vector<std::vector<HostId>> Network::clusters() const {
  return topology_.clusters([this](LinkId id) { return link_up(id); });
}

bool Network::connected(HostId x, HostId y) const {
  return topology_.connected(x, y, [this](LinkId id) { return link_up(id); });
}

const Server& Network::server(ServerId id) const {
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < servers_.size());
  return servers_[static_cast<std::size_t>(id.value)];
}

}  // namespace rbcast::net
