#include "core/multi_source.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::core {

namespace {

// Rejects a bad stream list (or a `self` its instances would reject)
// before the node attaches.
std::vector<HostId> checked_sources(std::vector<HostId> sources,
                                    const std::vector<HostId>& all_hosts,
                                    HostId self) {
  auto participates = [&all_hosts](HostId h) {
    return std::find(all_hosts.begin(), all_hosts.end(), h) != all_hosts.end();
  };
  RBCAST_CHECK_ARG(participates(self), "self must be among all_hosts");
  RBCAST_CHECK_ARG(!sources.empty(), "need at least one source");
  for (auto it = sources.begin(); it != sources.end(); ++it) {
    RBCAST_CHECK_ARG(participates(*it),
                     "every source must be a participating host");
    RBCAST_CHECK_ARG(std::find(sources.begin(), it, *it) == it,
                     "duplicate source");
  }
  return sources;
}

}  // namespace

net::HostEndpoint& MultiSourceNode::MuxTransport::attach(
    HostId host, net::DeliveryFn deliver) {
  RBCAST_ASSERT_MSG(host == self() && deliver_ == nullptr,
                    "one instance per stream, running on this host");
  deliver_ = std::move(deliver);
  return *this;
}

void MultiSourceNode::MuxTransport::send(HostId to, std::any payload,
                                         std::size_t bytes, std::string kind,
                                         net::TraceId trace_id) {
  auto* inner = std::any_cast<ProtocolMessage>(&payload);
  RBCAST_ASSERT_MSG(inner != nullptr,
                    "mux endpoint expects protocol messages");
  // +4 bytes: the stream-source demux field in the packet header.
  endpoint_.send(to, std::any(MuxMessage{stream_source_, std::move(*inner)}),
                 bytes + 4, std::move(kind), trace_id);
}

void MultiSourceNode::MuxTransport::deliver(
    const net::Delivery& delivery) const {
  if (deliver_ != nullptr) deliver_(delivery);
}

MultiSourceNode::MultiSourceNode(transport::Transport& transport, HostId self,
                                 std::vector<HostId> sources,
                                 std::vector<HostId> all_hosts,
                                 const Config& config,
                                 const util::RngFactory& rngs,
                                 AppDeliverFn app_deliver)
    : transport_(transport),
      sources_(checked_sources(std::move(sources), all_hosts, self)),
      app_deliver_(std::move(app_deliver)),
      endpoint_(transport.attach(
          self, [this](const net::Delivery& d) { on_delivery(d); })) {
  for (HostId source : sources_) {
    auto& mux = streams_[source];
    mux = std::make_unique<MuxTransport>(transport_, endpoint_, source);
    auto deliver = [this, source](Seq seq, std::string_view body) {
      if (app_deliver_) app_deliver_(source, seq, body);
    };
    instances_.emplace(
        source,
        std::make_unique<BroadcastHost>(
            *mux, self, source, all_hosts, config,
            // Independent jitter stream per (host, stream) pair.
            rngs.stream("msrc.jitter",
                        static_cast<std::int64_t>(self.value) * 4096 +
                            source.value),
            std::move(deliver)));
  }
}

MultiSourceNode::~MultiSourceNode() { transport_.detach(self()); }

void MultiSourceNode::start() {
  for (auto& [source, instance] : instances_) instance->start();
}

void MultiSourceNode::on_delivery(const net::Delivery& delivery) {
  const auto* mux = std::any_cast<MuxMessage>(&delivery.payload);
  RBCAST_ASSERT_MSG(mux != nullptr,
                    "MultiSourceNode received a foreign payload");
  auto it = streams_.find(mux->stream_source);
  RBCAST_ASSERT_MSG(it != streams_.end(), "unknown stream source");

  net::Delivery unwrapped = delivery;
  unwrapped.payload = std::any(mux->inner);
  if (unwrapped.bytes >= 4) unwrapped.bytes -= 4;
  it->second->deliver(unwrapped);
}

Seq MultiSourceNode::broadcast(std::string body) {
  RBCAST_ASSERT_MSG(is_source(),
                    "broadcast() on a host that is not a stream source");
  return instances_.at(self())->broadcast(std::move(body));
}

BroadcastHost& MultiSourceNode::instance(HostId source) {
  auto it = instances_.find(source);
  RBCAST_ASSERT_MSG(it != instances_.end(), "unknown stream source");
  return *it->second;
}

const BroadcastHost& MultiSourceNode::instance(HostId source) const {
  auto it = instances_.find(source);
  RBCAST_ASSERT_MSG(it != instances_.end(), "unknown stream source");
  return *it->second;
}

std::size_t MultiSourceNode::total_deliveries() const {
  std::size_t n = 0;
  for (const auto& [source, instance] : instances_) {
    n += instance->counters().deliveries;
  }
  return n;
}

}  // namespace rbcast::core
