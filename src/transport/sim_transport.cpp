#include "transport/sim_transport.h"

#include <iterator>
#include <utility>

#include "transport/wire.h"
#include "util/assert.h"

namespace rbcast::transport {

// Per-host sending side when batching is on: enqueues every frame into a
// Coalescer whose flush hands the whole batch to the network as one
// message. The simulator carries payloads in-process, so the flush wraps
// the queued items in a SimBatch; Delivery::bytes is the exact version-2
// container size the UDP backend would transmit.
class SimTransport::BatchingEndpoint final : public net::HostEndpoint {
 public:
  BatchingEndpoint(SimTransport& owner, HostId self)
      : owner_(owner),
        self_(self),
        inner_(owner.network_.endpoint(self)),
        coalescer_(owner.simulator_, owner.coalesce_,
                   [this](HostId to, std::span<Coalescer::Item> items) {
                     flush(to, items);
                   }) {}

  [[nodiscard]] HostId self() const override { return self_; }

  void send(HostId to, std::any payload, std::size_t bytes, std::string kind,
            net::TraceId trace_id) override {
    Coalescer::Item item;
    item.payload = std::move(payload);
    item.bytes = bytes;
    item.kind = std::move(kind);
    item.trace_id = trace_id;
    coalescer_.enqueue(to, std::move(item));
  }

  void flush_all() { coalescer_.flush_all(); }

  [[nodiscard]] const Coalescer::Stats& stats() const {
    return coalescer_.stats();
  }

  [[nodiscard]] std::size_t pending_frames() const {
    return coalescer_.pending_frames();
  }

 private:
  void flush(HostId to, std::span<Coalescer::Item> items) {
    // A batch of one still amortizes nothing but must stay a well-formed
    // datagram: charge it as the bare frame it would be on the UDP wire.
    if (items.size() == 1) {
      Coalescer::Item& only = items.front();
      inner_.send(to, std::move(only.payload), only.bytes,
                  std::move(only.kind), only.trace_id);
      return;
    }
    std::size_t bytes = kBatchHeaderBytes;
    for (const Coalescer::Item& item : items) {
      bytes += kBatchPerFrameBytes + item.bytes;
    }
    // Only a real batch needs a vector of its own, built once here.
    SimBatch batch{{std::make_move_iterator(items.begin()),
                    std::make_move_iterator(items.end())}};
    inner_.send(to, std::any(std::move(batch)), bytes, "batch",
                /*trace_id=*/0);
  }

  SimTransport& owner_;
  HostId self_;
  net::HostEndpoint& inner_;
  Coalescer coalescer_;
};

SimTransport::SimTransport(sim::Simulator& simulator, net::Network& network,
                           CoalescerConfig coalesce)
    : simulator_(simulator), network_(network), coalesce_(coalesce) {}

SimTransport::~SimTransport() = default;

net::HostEndpoint& SimTransport::attach(HostId host, net::DeliveryFn deliver) {
  RBCAST_CHECK_ARG(!attached_.contains(host),
                   "sim transport: host already attached");
  if (!coalesce_.enabled()) {
    network_.register_host(host, std::move(deliver));
    attached_.insert(host);
    return network_.endpoint(host);
  }
  // Receive side: unpack batch deliveries into per-frame upcalls sharing
  // the container's path metadata (cost bit, timing, hop count).
  network_.register_host(
      host, [inner = std::move(deliver)](const net::Delivery& d) {
        const auto* batch = std::any_cast<SimBatch>(&d.payload);
        if (batch == nullptr) {
          inner(d);
          return;
        }
        for (const Coalescer::Item& item : batch->items) {
          net::Delivery frame;
          frame.from = d.from;
          frame.to = d.to;
          frame.expensive = d.expensive;
          frame.payload = item.payload;
          frame.bytes = item.bytes;
          frame.kind = item.kind;
          frame.sent_at = d.sent_at;
          frame.hops = d.hops;
          frame.trace_id = item.trace_id;
          inner(frame);
        }
      });
  auto& ep = endpoints_[host.value];
  if (ep == nullptr) {
    ep = std::make_unique<BatchingEndpoint>(*this, host);
  }
  attached_.insert(host);
  return *ep;
}

void SimTransport::detach(HostId host) {
  // Network has no unregister; park a sink so in-flight messages that
  // arrive after the host died are silently discarded, as the paper's
  // network would discard messages to a crashed host.
  if (attached_.erase(host) == 0) return;
  auto it = endpoints_.find(host.value);
  if (it != endpoints_.end()) it->second->flush_all();
  network_.register_host(host, [](const net::Delivery&) {});
}

Coalescer::Stats SimTransport::coalescer_stats() const {
  Coalescer::Stats total;
  for (const auto& [host, ep] : endpoints_) {
    const Coalescer::Stats& s = ep->stats();
    total.frames_enqueued += s.frames_enqueued;
    total.batches_flushed += s.batches_flushed;
    total.size_flushes += s.size_flushes;
    total.deadline_flushes += s.deadline_flushes;
  }
  return total;
}

std::size_t SimTransport::coalescer_pending_frames() const {
  std::size_t n = 0;
  for (const auto& [host, ep] : endpoints_) n += ep->pending_frames();
  return n;
}

void SimTransport::register_metrics(util::MetricsRegistry& registry) {
  register_coalescer_metrics(
      registry, [this] { return coalescer_stats(); },
      [this] { return coalescer_pending_frames(); });
}

}  // namespace rbcast::transport
