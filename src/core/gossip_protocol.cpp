#include "core/gossip_protocol.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::core {

namespace {

constexpr std::size_t kHeaderBytes = 24;

// Max data messages pushed to one peer per exchange.
constexpr std::size_t kPushBurst = 16;

GossipConfig checked(const GossipConfig& config) {
  RBCAST_CHECK_ARG(config.fanout >= 1, "gossip fanout must be >= 1");
  return config;
}

}  // namespace

std::size_t wire_size(const GossipMessage& m) {
  if (const auto* digest = std::get_if<GossipDigest>(&m)) {
    return kHeaderBytes + 1 + digest->info.wire_size();
  }
  return kHeaderBytes + 8 + std::get<GossipData>(m).body.size();
}

const char* kind_of(const GossipMessage& m) {
  return std::holds_alternative<GossipDigest>(m) ? "gossip_digest" : "data";
}

GossipNode::GossipNode(transport::Transport& transport, HostId self,
                       HostId source, std::vector<HostId> all_hosts,
                       GossipConfig config, util::Rng rng,
                       AppDeliverFn app_deliver)
    : transport_(transport),
      source_(source),
      config_(checked(config)),
      endpoint_(transport.attach(
          self, [this](const net::Delivery& d) { on_delivery(d); })),
      rng_(rng),
      app_deliver_(std::move(app_deliver)) {
  for (HostId h : all_hosts) {
    if (h != self) peers_.push_back(h);
  }
  round_task_ = std::make_unique<util::PeriodicTask>(
      transport.scheduler(), config_.gossip_period,
      [this] { gossip_round(); });
}

GossipNode::~GossipNode() { transport_.detach(self()); }

void GossipNode::start() {
  round_task_->start(util::phase_jitter(rng_, config_.gossip_period));
}

Seq GossipNode::broadcast(std::string body) {
  RBCAST_ASSERT_MSG(is_source(), "broadcast() on a non-source gossip node");
  const Seq seq = next_seq_++;
  info_.insert(seq);
  bodies_.emplace(seq, std::move(body));
  ++counters_.deliveries;
  if (app_deliver_) app_deliver_(seq, bodies_.at(seq));
  return seq;
}

void GossipNode::send(HostId to, GossipMessage m) {
  const std::size_t bytes = wire_size(m);
  const char* kind = kind_of(m);
  endpoint_.send(to, std::any(std::move(m)), bytes, kind);
}

void GossipNode::gossip_round() {
  if (peers_.empty() || info_.empty()) return;
  ++counters_.rounds;
  // Fanout random peers, without replacement within the round.
  std::vector<HostId> pool = peers_;
  const int picks = std::min<int>(config_.fanout,
                                  static_cast<int>(pool.size()));
  for (int i = 0; i < picks; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    const HostId peer = pool[pick];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    send(peer, GossipDigest{info_, /*reply=*/false});
    ++counters_.digests_sent;
  }
}

void GossipNode::on_delivery(const net::Delivery& delivery) {
  const auto* message = std::any_cast<GossipMessage>(&delivery.payload);
  RBCAST_ASSERT_MSG(message != nullptr,
                    "GossipNode received a foreign payload");
  if (const auto* digest = std::get_if<GossipDigest>(message)) {
    handle_digest(delivery.from, *digest);
  } else {
    handle_data(delivery.from, std::get<GossipData>(*message));
  }
}

void GossipNode::handle_digest(HostId from, const GossipDigest& digest) {
  // Push: everything we have that the sender lacks.
  push_missing(from, digest.info);
  // Pull: if the sender is ahead of us somewhere, answer with our digest
  // (once — replies are not answered, terminating the exchange).
  if (!digest.reply && !digest.info.missing_from(info_, 1).empty()) {
    send(from, GossipDigest{info_, /*reply=*/true});
    ++counters_.digests_sent;
  }
}

void GossipNode::push_missing(HostId to, const SeqSet& peer_info) {
  for (Seq seq : info_.missing_from(peer_info, kPushBurst)) {
    auto it = bodies_.find(seq);
    if (it == bodies_.end()) continue;
    send(to, GossipData{seq, it->second});
    ++counters_.pushes_sent;
  }
}

void GossipNode::handle_data(HostId, const GossipData& data) {
  if (!info_.insert(data.seq)) {
    ++counters_.duplicates;
    return;
  }
  bodies_.emplace(data.seq, data.body);
  ++counters_.deliveries;
  if (app_deliver_) app_deliver_(data.seq, data.body);
}

}  // namespace rbcast::core
