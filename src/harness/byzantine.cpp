#include "harness/byzantine.h"

#include <string>
#include <utility>

#include "core/messages.h"
#include "util/time.h"

namespace rbcast::harness {

namespace {

using core::DataMsg;
using core::InfoMsg;
using core::ProtocolMessage;

// Deterministic body mutation: flip one byte, position and mask chosen by
// (seq, variant) so every replay of the same schedule alters the same
// bits. `variant` separates the equivocation personas: variant 0 is the
// plain corruption, variants 1/2 are the two faces a split-brain sender
// shows to odd/even destinations.
core::Payload mutate_body(const core::Payload& body, util::Seq seq,
                          unsigned variant) {
  std::string bytes(body.view());
  if (bytes.empty()) bytes.push_back('\0');
  const std::size_t pos = static_cast<std::size_t>(seq + variant) % bytes.size();
  bytes[pos] = static_cast<char>(bytes[pos] ^ (0x5a + 0x33 * variant));
  return {bytes};
}

}  // namespace

// Interposing endpoint for one Byzantine host. Forwards through the inner
// endpoint; protocol messages sent while a behavior window is active are
// mutated first (and bogus_offer additionally injects a forged frame).
class ByzantineTransport::Endpoint final : public net::HostEndpoint {
 public:
  Endpoint(ByzantineTransport& owner, net::HostEndpoint& inner,
           const std::vector<ByzantineBehavior>& behaviors)
      : owner_(owner), inner_(inner), behaviors_(behaviors) {}

  [[nodiscard]] HostId self() const override { return inner_.self(); }

  void send(HostId to, std::any payload, std::size_t bytes, std::string kind,
            net::TraceId trace_id) override {
    auto* message = std::any_cast<ProtocolMessage>(&payload);
    if (message == nullptr) {
      inner_.send(to, std::move(payload), bytes, std::move(kind), trace_id);
      return;
    }

    const double now_s =
        util::to_seconds(owner_.inner_.scheduler().now());
    bool mutated = false;
    bool offer_bogus = false;
    for (const ByzantineBehavior& b : behaviors_) {
      const bool active =
          now_s >= b.from_s && (b.to_s <= b.from_s || now_s < b.to_s);
      if (!active) continue;
      switch (b.kind) {
        case ByzantineBehavior::Kind::kCorrupt:
          mutated |= corrupt(*message);
          break;
        case ByzantineBehavior::Kind::kEquivocate:
          mutated |= equivocate(*message, to);
          break;
        case ByzantineBehavior::Kind::kLieInfo:
          mutated |= lie_info(*message, to);
          break;
        case ByzantineBehavior::Kind::kBogusOffer:
          // Ride along with INFO reports: one forged frame per report.
          offer_bogus |= std::holds_alternative<InfoMsg>(*message);
          break;
      }
    }

    if (mutated) {
      ++owner_.mutations_;
      // The wire charges what actually travels; the kind label follows
      // the (possibly re-flagged) message.
      bytes = core::wire_size(*message);
      kind = core::kind_of(*message);
    }
    // Capture what bogus_offer needs before the message is moved out.
    util::Seq forged_seq = 0;
    if (offer_bogus) {
      const auto& info = std::get<InfoMsg>(*message);
      forged_seq = info.info.max_seq() + 5;
    }
    inner_.send(to, std::move(payload), bytes, std::move(kind), trace_id);

    if (offer_bogus) {
      ++owner_.mutations_;
      DataMsg forged;
      forged.seq = forged_seq;
      forged.body = "byzantine-bogus-offer";
      forged.gap_fill = true;
      // An honest-looking trace id: the monitor attributes the frame to
      // the real source's stream and flags the invented sequence (I3).
      const net::TraceId forged_trace =
          net::make_trace_id(owner_.source_, forged.seq);
      ProtocolMessage m{std::move(forged)};
      const std::size_t forged_bytes = core::wire_size(m);
      const char* forged_kind = core::kind_of(m);
      inner_.send(to, std::any(std::move(m)), forged_bytes, forged_kind,
                  forged_trace);
    }
  }

 private:
  // Flip a body byte in every outbound data frame; the stale tag rides
  // along unchanged (the adversary cannot re-sign).
  static bool corrupt(ProtocolMessage& m) {
    auto* data = std::get_if<DataMsg>(&m);
    if (data == nullptr) return false;
    data->body = mutate_body(data->body, data->seq, 0);
    return true;
  }

  // Different bodies for the same (source, seq) depending on the
  // destination's parity — children compare notes and disagree.
  static bool equivocate(ProtocolMessage& m, HostId to) {
    auto* data = std::get_if<DataMsg>(&m);
    if (data == nullptr) return false;
    data->body = mutate_body(data->body, data->seq,
                             (to.value % 2 == 0) ? 1 : 2);
    return true;
  }

  // Inflate the reported watermark past anything the host really has and
  // claim the recipient as parent. Applies to standalone INFO reports and
  // to the piggybacked copy on data frames.
  static bool lie_info(ProtocolMessage& m, HostId to) {
    if (auto* info = std::get_if<InfoMsg>(&m)) {
      const util::Seq top = info->info.max_seq();
      info->info.insert_range(top + 1, top + 8);
      info->parent = to;
      return true;
    }
    if (auto* data = std::get_if<DataMsg>(&m);
        data != nullptr && data->piggyback.has_value()) {
      const util::Seq top = data->piggyback->info.max_seq();
      data->piggyback->info.insert_range(top + 1, top + 8);
      data->piggyback->parent = to;
      return true;
    }
    return false;
  }

  ByzantineTransport& owner_;
  net::HostEndpoint& inner_;
  const std::vector<ByzantineBehavior>& behaviors_;
};

ByzantineTransport::ByzantineTransport(transport::Transport& inner,
                                       ByzantineSchedule schedule,
                                       HostId source)
    : inner_(inner), schedule_(std::move(schedule)), source_(source) {}

ByzantineTransport::~ByzantineTransport() = default;

util::Scheduler& ByzantineTransport::scheduler() { return inner_.scheduler(); }

net::HostEndpoint& ByzantineTransport::attach(HostId host,
                                              net::DeliveryFn deliver) {
  net::HostEndpoint& inner_endpoint = inner_.attach(host, std::move(deliver));
  auto it = schedule_.find(host);
  if (it == schedule_.end() || it->second.empty()) return inner_endpoint;
  auto endpoint = std::make_unique<Endpoint>(*this, inner_endpoint, it->second);
  Endpoint& ref = *endpoint;
  endpoints_[host] = std::move(endpoint);
  return ref;
}

void ByzantineTransport::detach(HostId host) {
  endpoints_.erase(host);
  inner_.detach(host);
}

std::set<HostId> ByzantineTransport::byzantine_hosts() const {
  std::set<HostId> hosts;
  for (const auto& [host, behaviors] : schedule_) {
    if (!behaviors.empty()) hosts.insert(host);
  }
  return hosts;
}

}  // namespace rbcast::harness
