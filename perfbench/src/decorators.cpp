#include "decorators.h"

#include <utility>
#include <variant>

#include "core/messages.h"

namespace perfbench {

namespace net = rbcast::net;
namespace util = rbcast::util;
using Scope = Tracer::Scope;

util::EventId TracingScheduler::after(util::Duration d, Action action) {
  // The wrapper closure is the tracer's own allocation, not the caller's.
  const std::uint64_t before = alloc_count();
  Action wrapped = [this, inner = std::move(action)] {
    Scope span(tracer_, Layer::kCoreTimer);
    inner();
  };
  tracer_.exclude_allocs(alloc_count() - before);
  return inner_.after(d, std::move(wrapped));
}

void TracingEndpoint::send(HostId to, std::any payload, std::size_t bytes,
                           std::string kind, net::TraceId trace_id) {
  ++counts_.frames;
  counts_.frame_bytes += bytes;
  if (kind == "info") {
    ++counts_.info_frames;
    counts_.info_bytes += bytes;
  }
  Scope span(tracer_, Layer::kTransportSend);
  inner_.send(to, std::move(payload), bytes, std::move(kind), trace_id);
}

net::HostEndpoint& TracingTransport::attach(HostId host,
                                            net::DeliveryFn deliver) {
  net::DeliveryFn upcall = [this, inner = std::move(deliver)](
                               const net::Delivery& d) {
    const auto* m = std::any_cast<rbcast::core::ProtocolMessage>(&d.payload);
    if (m != nullptr && std::holds_alternative<rbcast::core::DataMsg>(*m)) {
      ++counts_.data_received;
    }
    Scope span(tracer_, Layer::kCoreUpcall);
    inner(d);
  };
  net::HostEndpoint& endpoint = inner_.attach(host, std::move(upcall));
  endpoints_.push_back(
      std::make_unique<TracingEndpoint>(endpoint, tracer_, counts_));
  return *endpoints_.back();
}

void TracingNetObserver::on_host_send(const net::Delivery& d) {
  Scope span(tracer_, Layer::kNetObserver);
  inner_.on_host_send(d);
}

void TracingNetObserver::on_deliver(const net::Delivery& d) {
  Scope span(tracer_, Layer::kNetObserver);
  inner_.on_deliver(d);
}

void TracingNetObserver::on_drop(const net::Delivery& d,
                                 net::DropReason reason) {
  Scope span(tracer_, Layer::kNetObserver);
  inner_.on_drop(d, reason);
}

void TracingNetObserver::on_link_transmit(rbcast::LinkId link,
                                          const net::Delivery& d) {
  Scope span(tracer_, Layer::kNetObserver);
  inner_.on_link_transmit(link, d);
}

void TracingNetObserver::on_queue_backlog(rbcast::ServerId server,
                                          rbcast::LinkId link,
                                          util::Duration backlog) {
  const std::uint64_t before = alloc_count();
  counts_.queue_backlog_s.add(util::to_seconds(backlog));
  tracer_.exclude_allocs(alloc_count() - before);
  Scope span(tracer_, Layer::kNetObserver);
  inner_.on_queue_backlog(server, link, backlog);
}

void TracingProtocolObserver::on_attach_requested(HostId host,
                                                  HostId candidate,
                                                  const std::string& rule) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_attach_requested(host, candidate, rule);
}

void TracingProtocolObserver::on_attached(HostId host, HostId parent) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_attached(host, parent);
}

void TracingProtocolObserver::on_detached(HostId host, HostId old_parent,
                                          bool timeout) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_detached(host, old_parent, timeout);
}

void TracingProtocolObserver::on_cycle_broken(HostId host) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_cycle_broken(host);
}

void TracingProtocolObserver::on_attach_timeout(HostId host,
                                                HostId candidate) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_attach_timeout(host, candidate);
}

void TracingProtocolObserver::on_new_max_rejected(HostId host, HostId from,
                                                  util::Seq seq) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_new_max_rejected(host, from, seq);
}

void TracingProtocolObserver::on_delivered(HostId host, util::Seq seq) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_delivered(host, seq);
}

void TracingProtocolObserver::on_gapfill_offered(HostId host, HostId to,
                                                 util::Seq seq) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_gapfill_offered(host, to, seq);
}

void TracingProtocolObserver::on_gapfill_accepted(HostId host, HostId from,
                                                  util::Seq seq) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_gapfill_accepted(host, from, seq);
}

void TracingProtocolObserver::on_gapfill_relayed(HostId host, HostId to,
                                                 util::Seq seq) {
  Scope span(tracer_, Layer::kProtocolObserver);
  inner_.on_gapfill_relayed(host, to, seq);
}

}  // namespace perfbench
