#include "core/basic_protocol.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::core {

namespace {
constexpr std::size_t kHeaderBytes = 24;
}

std::size_t wire_size(const BasicMessage& m) {
  if (const auto* data = std::get_if<BasicData>(&m)) {
    return kHeaderBytes + 8 + data->body.size();
  }
  return kHeaderBytes + 8;
}

const char* kind_of(const BasicMessage& m) {
  return std::holds_alternative<BasicData>(m) ? "data" : "ack";
}

BasicSource::BasicSource(transport::Transport& transport, HostId self,
                         std::vector<HostId> all_hosts, BasicConfig config,
                         util::Rng rng)
    : transport_(transport),
      endpoint_(transport.attach(
          self, [this](const net::Delivery& d) { on_delivery(d); })),
      config_(config),
      rng_(rng) {
  for (HostId h : all_hosts) {
    if (h != self) destinations_.push_back(h);
  }
  retransmit_task_ = std::make_unique<util::PeriodicTask>(
      transport.scheduler(), config_.retransmit_period,
      [this] { retransmit_round(); });
}

BasicSource::~BasicSource() { transport_.detach(self()); }

void BasicSource::start() {
  retransmit_task_->start(
      util::phase_jitter(rng_, config_.retransmit_period));
}

Seq BasicSource::broadcast(std::string body) {
  const Seq seq = next_seq_++;
  auto [it, fresh] = bodies_.emplace(seq, std::move(body));
  RBCAST_ASSERT(fresh);
  auto& waiting = unacked_[seq];
  for (HostId h : destinations_) {
    waiting.insert(h);
    endpoint_.send(h, std::any(BasicMessage(BasicData{seq, it->second})),
                   wire_size(BasicMessage(BasicData{seq, it->second})),
                   "data", net::make_trace_id(endpoint_.self(), seq));
    ++counters_.first_sends;
  }
  if (waiting.empty()) {  // degenerate single-host network
    unacked_.erase(seq);
    bodies_.erase(seq);
  }
  return seq;
}

void BasicSource::on_delivery(const net::Delivery& delivery) {
  const auto* message = std::any_cast<BasicMessage>(&delivery.payload);
  RBCAST_ASSERT_MSG(message != nullptr,
                    "BasicSource received a foreign payload");
  const auto* ack = std::get_if<BasicAck>(message);
  if (ack == nullptr) return;  // the source ignores stray data copies
  ++counters_.acks_received;
  auto it = unacked_.find(ack->seq);
  if (it == unacked_.end()) return;
  it->second.erase(delivery.from);
  if (it->second.empty()) {
    unacked_.erase(it);
    bodies_.erase(ack->seq);  // everyone has it; retransmission state done
  }
}

std::size_t BasicSource::pending() const {
  std::size_t n = 0;
  for (const auto& [seq, hosts] : unacked_) n += hosts.size();
  return n;
}

bool BasicSource::fully_acked(Seq seq) const {
  return seq < next_seq_ && !unacked_.contains(seq);
}

void BasicSource::retransmit_round() {
  // Like the naive algorithm: every unacknowledged (host, seq) pair, every
  // round.
  for (const auto& [seq, hosts] : unacked_) {
    const std::string& body = bodies_.at(seq);
    for (HostId h : hosts) {
      BasicMessage m{BasicData{seq, body}};
      endpoint_.send(h, std::any(m), wire_size(m), "data_retx",
                     net::make_trace_id(endpoint_.self(), seq));
      ++counters_.retransmissions;
    }
  }
}

BasicReceiver::BasicReceiver(transport::Transport& transport, HostId self,
                             AppDeliverFn app_deliver)
    : transport_(transport),
      endpoint_(transport.attach(
          self, [this](const net::Delivery& d) { on_delivery(d); })),
      app_deliver_(std::move(app_deliver)) {}

BasicReceiver::~BasicReceiver() { transport_.detach(self()); }

void BasicReceiver::on_delivery(const net::Delivery& delivery) {
  const auto* message = std::any_cast<BasicMessage>(&delivery.payload);
  RBCAST_ASSERT_MSG(message != nullptr,
                    "BasicReceiver received a foreign payload");
  const auto* data = std::get_if<BasicData>(message);
  if (data == nullptr) return;

  // Acknowledge every copy: an earlier ack may have been lost.
  BasicMessage ack{BasicAck{data->seq}};
  endpoint_.send(delivery.from, std::any(ack), wire_size(ack), "ack");
  ++counters_.acks_sent;

  if (received_.insert(data->seq)) {
    ++counters_.deliveries;
    if (app_deliver_) app_deliver_(data->seq, data->body);
  } else {
    ++counters_.duplicates;
  }
}

}  // namespace rbcast::core
