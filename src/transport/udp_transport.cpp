#include "transport/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <any>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "transport/wire.h"
#include "util/assert.h"

namespace rbcast::transport {

struct UdpTransport::PeerState {
  Peer peer;
  sockaddr_in sa{};
};

// The per-host socket + endpoint handed to the protocol instance.
class UdpTransport::Binding final : public net::HostEndpoint {
 public:
  Binding(UdpTransport& owner, HostId host, net::DeliveryFn deliver)
      : owner_(owner), host_(host), deliver_(std::move(deliver)) {
    if (owner.config_coalesce_.enabled()) {
      coalescer = std::make_unique<Coalescer>(
          owner.scheduler_, owner.config_coalesce_,
          [this](HostId to, std::span<Coalescer::Item> items) {
            owner_.flush_from(*this, to, items);
          });
    }
  }

  ~Binding() override {
    if (fd >= 0) ::close(fd);
  }

  Binding(const Binding&) = delete;
  Binding& operator=(const Binding&) = delete;

  [[nodiscard]] HostId self() const override { return host_; }

  void send(HostId to, std::any payload, std::size_t bytes, std::string kind,
            net::TraceId trace_id) override {
    owner_.send_from(*this, to, std::move(payload), bytes, std::move(kind),
                     trace_id);
  }

  void deliver(const net::Delivery& d) { deliver_(d); }

  int fd{-1};
  // Present iff Config::coalesce is enabled; frames queue here and go out
  // via UdpTransport::flush_from.
  std::unique_ptr<Coalescer> coalescer;

 private:
  UdpTransport& owner_;
  HostId host_;
  net::DeliveryFn deliver_;
};

namespace {

sockaddr_in resolve(const UdpTransport::Peer& peer) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(peer.port);
  if (inet_pton(AF_INET, peer.addr.c_str(), &sa.sin_addr) != 1) {
    throw std::runtime_error("udp transport: bad peer address '" + peer.addr +
                             "'");
  }
  return sa;
}

}  // namespace

UdpTransport::UdpTransport(util::RealTimeScheduler& scheduler,
                           const PayloadCodec& codec, Config config)
    : scheduler_(scheduler),
      codec_(codec),
      impairment_config_(config.impairment),
      config_coalesce_(config.coalesce) {
  if (impairment_config_.enabled()) {
    impairment_ = std::make_unique<Impairment>(impairment_config_);
  }
  for (const Peer& peer : config.peers) {
    RBCAST_CHECK_ARG(peer.host.valid(), "udp transport: invalid peer host");
    RBCAST_CHECK_ARG(find_peer(peer.host) == nullptr,
                     "udp transport: duplicate peer host");
    auto state = std::make_unique<PeerState>();
    state->peer = peer;
    state->sa = resolve(peer);
    peers_.push_back(std::move(state));
  }
}

UdpTransport::~UdpTransport() {
  for (auto& [host, binding] : bindings_) {
    if (binding->coalescer != nullptr) binding->coalescer->flush_all();
    if (binding->fd >= 0) scheduler_.unwatch_fd(binding->fd);
  }
}

util::Scheduler& UdpTransport::scheduler() { return scheduler_; }

UdpTransport::PeerState* UdpTransport::find_peer(HostId host) {
  for (auto& state : peers_) {
    if (state->peer.host == host) return state.get();
  }
  return nullptr;
}

const UdpTransport::PeerState* UdpTransport::find_peer(HostId host) const {
  for (const auto& state : peers_) {
    if (state->peer.host == host) return state.get();
  }
  return nullptr;
}

bool UdpTransport::known_source(const sockaddr_in& src) const {
  if (src.sin_family != AF_INET) return false;
  for (const auto& state : peers_) {
    // Port 0 means "not yet learned" (set_peer_port fills it in later);
    // such an entry cannot vouch for any sender.
    if (state->peer.port == 0) continue;
    if (state->sa.sin_addr.s_addr == src.sin_addr.s_addr &&
        state->sa.sin_port == src.sin_port) {
      return true;
    }
  }
  return false;
}

net::HostEndpoint& UdpTransport::attach(HostId host, net::DeliveryFn deliver) {
  RBCAST_CHECK_ARG(deliver != nullptr, "udp transport: null delivery fn");
  RBCAST_CHECK_ARG(bindings_.find(host.value) == bindings_.end(),
                   "udp transport: host already attached");
  PeerState* me = find_peer(host);
  if (me == nullptr) {
    throw std::runtime_error("udp transport: host not in the peer table");
  }

  auto binding = std::make_unique<Binding>(*this, host, std::move(deliver));
  binding->fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (binding->fd < 0) {
    throw std::runtime_error(std::string("udp transport: socket: ") +
                             std::strerror(errno));
  }
  if (::bind(binding->fd, reinterpret_cast<const sockaddr*>(&me->sa),
             sizeof(me->sa)) != 0) {
    throw std::runtime_error("udp transport: bind " + me->peer.addr + ":" +
                             std::to_string(me->peer.port) + ": " +
                             std::strerror(errno));
  }
  if (me->peer.port == 0) {
    // Ephemeral bind: read the port back and fix up the local peer table
    // so other hosts in this process can address us.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    RBCAST_ASSERT_MSG(
        ::getsockname(binding->fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0,
        "getsockname failed");
    set_peer_port(host, ntohs(bound.sin_port));
  }

  Binding* raw = binding.get();
  scheduler_.watch_fd(raw->fd, [this, raw] { on_readable(*raw); });
  bindings_.emplace(host.value, std::move(binding));
  return *raw;
}

void UdpTransport::detach(HostId host) {
  const auto it = bindings_.find(host.value);
  if (it == bindings_.end()) return;
  if (it->second->coalescer != nullptr) it->second->coalescer->flush_all();
  if (it->second->fd >= 0) scheduler_.unwatch_fd(it->second->fd);
  bindings_.erase(it);
}

std::uint16_t UdpTransport::local_port(HostId host) const {
  const PeerState* state = find_peer(host);
  RBCAST_CHECK_ARG(state != nullptr, "udp transport: unknown host");
  return state->peer.port;
}

void UdpTransport::set_peer_port(HostId host, std::uint16_t port) {
  PeerState* state = find_peer(host);
  RBCAST_CHECK_ARG(state != nullptr, "udp transport: unknown host");
  state->peer.port = port;
  state->sa.sin_port = htons(port);
}

void UdpTransport::send_from(Binding& from, HostId to, std::any payload,
                             std::size_t bytes, std::string kind,
                             net::TraceId trace_id) {
  net::Delivery d;
  d.from = from.self();
  d.to = to;
  d.payload = std::move(payload);
  d.bytes = bytes;
  d.kind = std::move(kind);
  d.sent_at = scheduler_.now();
  d.trace_id = trace_id;
  if (observer_ != nullptr) observer_->on_host_send(d);

  const PeerState* dest = find_peer(to);
  if (dest == nullptr || dest->peer.port == 0) {
    ++stats_.send_errors;
    if (observer_ != nullptr) observer_->on_drop(d, net::DropReason::kNoRoute);
    return;
  }

  Frame frame;
  frame.from = d.from;
  frame.to = to;
  frame.expensive = false;  // a localhost wire has no expensive links
  frame.kind = d.kind;
  frame.trace_id = trace_id;
  if (!codec_.encode(d.payload, frame.payload)) {
    // A payload the codec cannot name is a wiring bug, not a peer's fault.
    RBCAST_ASSERT_MSG(false, "udp transport: unencodable payload");
    return;
  }
  std::string encoded = encode_frame(frame);

  if (from.coalescer != nullptr) {
    Coalescer::Item item;
    item.bytes = encoded.size();
    item.encoded = std::move(encoded);
    item.kind = std::move(d.kind);
    item.trace_id = trace_id;
    from.coalescer->enqueue(to, std::move(item));
    return;
  }

  send_datagram(from, *dest, encoded, /*frames=*/1, &d);
}

void UdpTransport::flush_from(Binding& from, HostId to,
                              std::span<Coalescer::Item> items) {
  RBCAST_ASSERT(!items.empty());
  const PeerState* dest = find_peer(to);
  if (dest == nullptr || dest->peer.port == 0) {
    stats_.send_errors += items.size();
    return;
  }
  if (items.size() == 1) {
    send_datagram(from, *dest, items.front().encoded, /*frames=*/1);
    return;
  }
  std::vector<std::string> encoded;
  encoded.reserve(items.size());
  for (Coalescer::Item& item : items) encoded.push_back(std::move(item.encoded));
  send_datagram(from, *dest, encode_batch_container(encoded), items.size());
}

void UdpTransport::send_datagram(Binding& from, const PeerState& dest,
                                 const std::string& datagram,
                                 std::size_t frames, const net::Delivery* d) {
  // One impairment draw per datagram — the wire loses datagrams, not
  // frames — but stats count contained frames, so a duplicated batch does
  // not under-report and a dropped one does not hide its cost.
  ImpairmentPlan plan;
  if (impairment_ != nullptr) plan = impairment_->next();
  if (plan.dropped) {
    stats_.impair_drops += frames;
    if (d != nullptr && observer_ != nullptr) {
      observer_->on_drop(*d, net::DropReason::kRandomLoss);
    }
    return;
  }
  if (plan.copies > 1) stats_.impair_duplicates += frames;
  for (int c = 0; c < plan.copies; ++c) {
    const util::Duration delay =
        plan.delay[std::min(c, ImpairmentPlan::kMaxCopies - 1)];
    if (delay <= 0) {
      transmit(from.fd, dest, datagram);
    } else {
      stats_.impair_delays += frames;
      // Copy the destination state: the peer table may be edited before
      // the timer fires.
      scheduler_.after(delay, [this, fd = from.fd, d2 = dest, datagram] {
        transmit(fd, d2, datagram);
      });
    }
  }
}

void UdpTransport::transmit(int fd, const PeerState& dest,
                            const std::string& datagram) {
  const ssize_t n =
      ::sendto(fd, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&dest.sa), sizeof(dest.sa));
  if (n == static_cast<ssize_t>(datagram.size())) {
    ++stats_.datagrams_sent;
  } else {
    // Fire-and-forget, exactly like the paper's network: a full socket
    // buffer is just another lossy link.
    ++stats_.send_errors;
  }
}

void UdpTransport::on_readable(Binding& binding) {
  char buf[64 * 1024];
  // Drain the socket: poll() is level-triggered but each wakeup costs a
  // loop iteration, so take everything available now.
  while (true) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        recv_fn_ ? recv_fn_(binding.fd, buf, sizeof(buf), &src)
                 : ::recvfrom(binding.fd, buf, sizeof(buf), 0,
                              reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      // A signal mid-call left the datagram in the queue: retry now
      // instead of waiting for the next poll wakeup.
      if (errno == EINTR) continue;
      // Drained — the normal exit of the level-triggered loop.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Anything else is a sick socket (EBADF, ENOTSOCK, ECONNREFUSED
      // from an ICMP error, ...): count it so it is distinguishable from
      // "no data", then let poll decide whether to call us again.
      ++stats_.recv_errors;
      return;
    }
    ++stats_.datagrams_received;
    // Source filter: only configured peer bindings may speak to us. The
    // check runs BEFORE any frame decoding, so an unsolicited sender gets
    // no parser surface at all. (UDP sources are spoofable, so this is
    // hygiene and blast-radius reduction, not authentication — that is
    // the codec-level auth tag's job.)
    if (!known_source(src)) {
      ++stats_.recv_unknown_peer;
      continue;
    }
    auto frames = decode_datagram(buf, static_cast<std::size_t>(n));
    if (!frames.has_value()) {
      ++stats_.frame_decode_errors;
      continue;
    }
    if (frames->size() == 1) {
      // Bare version-1 frame: Delivery::bytes is the datagram size, as it
      // always was.
      deliver_frame(binding, std::move(frames->front()),
                    static_cast<std::size_t>(n));
      continue;
    }
    for (Frame& frame : *frames) {
      // Contained frame: charge what it would have cost standalone
      // (header + kind + payload; see wire.h).
      const std::size_t wire_bytes =
          kFrameHeaderBytes + frame.kind.size() + frame.payload.size();
      deliver_frame(binding, std::move(frame), wire_bytes);
    }
  }
}

void UdpTransport::deliver_frame(Binding& binding, Frame frame,
                                 std::size_t wire_bytes) {
  if (frame.to != binding.self()) {
    ++stats_.misdirected;
    return;
  }
  net::Delivery d;
  d.from = frame.from;
  d.to = frame.to;
  d.expensive = frame.expensive;
  d.bytes = wire_bytes;
  d.kind = std::move(frame.kind);
  d.sent_at = scheduler_.now();  // sender clocks are not comparable
  d.hops = 1;
  d.trace_id = frame.trace_id;
  d.payload = codec_.decode(frame.payload.data(), frame.payload.size());
  if (!d.payload.has_value()) {
    // Malformed body from an untrusted peer: hand the empty payload up
    // so the protocol's own decode_errors counter sees it.
    ++stats_.payload_decode_errors;
  }
  if (observer_ != nullptr) observer_->on_deliver(d);
  binding.deliver(d);
}

Coalescer::Stats UdpTransport::coalescer_stats() const {
  Coalescer::Stats total;
  for (const auto& [host, binding] : bindings_) {
    if (binding->coalescer == nullptr) continue;
    const Coalescer::Stats& s = binding->coalescer->stats();
    total.frames_enqueued += s.frames_enqueued;
    total.batches_flushed += s.batches_flushed;
    total.size_flushes += s.size_flushes;
    total.deadline_flushes += s.deadline_flushes;
  }
  return total;
}

std::size_t UdpTransport::coalescer_pending_frames() const {
  std::size_t n = 0;
  for (const auto& [host, binding] : bindings_) {
    if (binding->coalescer != nullptr) n += binding->coalescer->pending_frames();
  }
  return n;
}

void UdpTransport::register_metrics(util::MetricsRegistry& registry) {
  struct Field {
    const char* name;
    const char* help;
    std::uint64_t Stats::* member;
  };
  // Dotted names here and the coalescer's are THE wire-transport metric
  // schema (DESIGN.md §14): /metrics exposes them via prometheus_name()
  // and sim traces carry them through MetricSampler's "registry" record.
  static constexpr Field kFields[] = {
      {"transport.datagrams_sent", "UDP datagrams sent",
       &Stats::datagrams_sent},
      {"transport.datagrams_received", "UDP datagrams received",
       &Stats::datagrams_received},
      {"transport.frame_decode_errors",
       "Datagrams dropped: garbage, truncation or bad container version",
       &Stats::frame_decode_errors},
      {"transport.payload_decode_errors",
       "Frames whose payload the codec rejected",
       &Stats::payload_decode_errors},
      {"transport.misdirected", "Frames addressed to a different host",
       &Stats::misdirected},
      {"transport.send_errors", "sendto failures and unknown peers",
       &Stats::send_errors},
      {"transport.recv_errors", "Hard recvfrom errors",
       &Stats::recv_errors},
      {"transport.recv_unknown_peer",
       "Datagrams dropped: source is not a configured peer binding",
       &Stats::recv_unknown_peer},
      {"transport.impair_drops", "Frames dropped by the impairment shim",
       &Stats::impair_drops},
      {"transport.impair_duplicates",
       "Frames duplicated by the impairment shim", &Stats::impair_duplicates},
      {"transport.impair_delays", "Frames delayed by the impairment shim",
       &Stats::impair_delays},
  };
  for (const Field& f : kFields) {
    registry.register_counter_fn(f.name, "", f.help,
                                 [this, m = f.member] { return stats_.*m; });
  }
  register_coalescer_metrics(
      registry, [this] { return coalescer_stats(); },
      [this] { return coalescer_pending_frames(); });
}

}  // namespace rbcast::transport
