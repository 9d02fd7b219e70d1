#include "core/broadcast_host.h"

#include <algorithm>
#include <utility>

#include "core/gap_filling.h"
#include "util/assert.h"
#include "util/logging.h"

namespace rbcast::core {

namespace {

HostId checked_source(HostId source) {
  RBCAST_CHECK_ARG(source.valid(), "invalid source id");
  return source;
}

}  // namespace

BroadcastHost::BroadcastHost(transport::Transport& transport, HostId self,
                             HostId source, std::vector<HostId> all_hosts,
                             Config config, util::Rng rng,
                             AppDeliverFn app_deliver)
    : ProtocolRules(self, std::move(all_hosts), checked_source(source)),
      transport_(transport),
      scheduler_(transport.scheduler()),
      source_(source),
      config_(std::move(config)),
      endpoint_(transport.attach(
          self, [this](const net::Delivery& d) { on_delivery(d); })),
      rng_(rng),
      app_deliver_(std::move(app_deliver)) {
  attach_task_ = std::make_unique<util::PeriodicTask>(
      scheduler_, config_.attach_period, [this] { attachment_round(); });
  info_intra_task_ = std::make_unique<util::PeriodicTask>(
      scheduler_, config_.info_period_intra, [this] { info_round_intra(); });
  info_inter_task_ = std::make_unique<util::PeriodicTask>(
      scheduler_, config_.info_period_inter, [this] { info_round_inter(); });
  gapfill_neighbor_task_ = std::make_unique<util::PeriodicTask>(
      scheduler_, config_.gapfill_period_neighbor,
      [this] { gapfill_round_neighbor(); });
  gapfill_far_task_ = std::make_unique<util::PeriodicTask>(
      scheduler_, config_.gapfill_period_far, [this] { gapfill_round_far(); });
  // Maintenance must run well inside the shortest timeout it enforces.
  const util::Duration maintenance_period = std::max<util::Duration>(
      util::milliseconds(100),
      std::min(config_.parent_timeout, config_.child_timeout) / 4);
  maintenance_task_ = std::make_unique<util::PeriodicTask>(
      scheduler_, maintenance_period, [this] { maintenance_round(); });
}

BroadcastHost::~BroadcastHost() {
  // Detach before members die so an in-flight delivery can never reach a
  // half-destroyed host, and drop the one timer no PeriodicTask owns.
  transport_.detach(self());
  if (attach_timer_.valid()) scheduler_.cancel(attach_timer_);
  if (metrics_registry_ != nullptr) {
    for (const std::string& name : metrics_names_) {
      metrics_registry_->unregister(name, metrics_labels_);
    }
  }
}

void BroadcastHost::register_metrics(util::MetricsRegistry& registry,
                                     const std::string& labels) {
  RBCAST_CHECK_ARG(metrics_registry_ == nullptr,
                   "register_metrics: host already registered");
  metrics_registry_ = &registry;
  metrics_labels_ = labels;
  struct Field {
    const char* name;
    const char* help;
    std::uint64_t Counters::* member;
  };
  // The host.* metric schema (DESIGN.md §14); one labelled series per
  // host, summed across labels by MetricSampler's registry record.
  static constexpr Field kFields[] = {
      {"host.attach_attempts", "Attachment procedure runs that sent a request",
       &Counters::attach_attempts},
      {"host.attach_timeouts", "Attach handshakes that timed out",
       &Counters::attach_timeouts},
      {"host.attaches_completed", "Attach handshakes accepted",
       &Counters::attaches_completed},
      {"host.cycles_broken", "Parent cycles detected and broken",
       &Counters::cycles_broken},
      {"host.parent_timeouts", "Parents declared dead by silence",
       &Counters::parent_timeouts},
      {"host.new_max_rejected", "New maxima offered by a non-parent, rejected",
       &Counters::new_max_rejected},
      {"host.duplicates_discarded", "Data receipts already held",
       &Counters::duplicates_discarded},
      {"host.data_forwarded", "Data messages forwarded down the tree",
       &Counters::data_forwarded},
      {"host.gapfills_sent", "Gap-fill data messages sent",
       &Counters::gapfills_sent},
      {"host.deliveries", "First receipts handed to the application",
       &Counters::deliveries},
      {"host.decode_errors", "Deliveries whose payload failed wire decoding",
       &Counters::decode_errors},
      {"host.auth_rejects",
       "Data frames dropped for a missing or invalid authentication tag",
       &Counters::auth_rejects},
      {"host.unknown_sender_drops",
       "Deliveries dropped because the sender is not a known peer",
       &Counters::unknown_sender},
  };
  for (const Field& f : kFields) {
    registry.register_counter_fn(
        f.name, labels, f.help, [this, m = f.member] { return counters_.*m; });
    metrics_names_.emplace_back(f.name);
  }
  registry.register_gauge_fn(
      "host.info_count", labels, "Sequences held in INFO_i",
      [this] { return static_cast<double>(state_.info().count()); });
  metrics_names_.emplace_back("host.info_count");
  registry.register_gauge_fn(
      "host.max_seq", labels, "Sequence watermark (MAX_i)",
      [this] { return static_cast<double>(state_.info().max_seq()); });
  metrics_names_.emplace_back("host.max_seq");
  registry.register_gauge_fn(
      "host.parent", labels, "Current parent host id (-1 = NIL)", [this] {
        return static_cast<double>(parent().valid() ? parent().value : -1);
      });
  metrics_names_.emplace_back("host.parent");
  registry.register_gauge_fn(
      "host.cluster_size", labels, "Hosts currently in CLUSTER_i",
      [this] { return static_cast<double>(state_.cluster().size()); });
  metrics_names_.emplace_back("host.cluster_size");
}

void BroadcastHost::start() {
  // Jitter first activations so hosts do not act in lock-step; each task
  // starts somewhere inside its own first period.
  auto phase = [this](util::Duration period) {
    return util::phase_jitter(rng_, period);
  };
  attach_task_->start(phase(config_.attach_period));
  info_intra_task_->start(phase(config_.info_period_intra));
  info_inter_task_->start(phase(config_.info_period_inter));
  gapfill_neighbor_task_->start(phase(config_.gapfill_period_neighbor));
  gapfill_far_task_->start(phase(config_.gapfill_period_far));
  maintenance_task_->start(phase(maintenance_task_->period()));
  last_parent_heard_ = scheduler_.now();
}

Seq BroadcastHost::broadcast(std::string body) {
  RBCAST_ASSERT_MSG(is_source(), "broadcast() called on a non-source host");
  const Seq seq = next_seq_++;
  HostState::StoredMessage message{seq, Payload(body), std::nullopt};
  if (config_.auth_enabled) {
    message.auth = make_auth_tag(config_.auth_secret, self(), seq, body);
  }
  // "INFO_s ... gets updated every time a new broadcast message is
  // generated at the source."
  originate(message);
  return seq;
}

void BroadcastHost::on_delivery(const net::Delivery& delivery) {
  const auto* message = std::any_cast<ProtocolMessage>(&delivery.payload);
  if (message == nullptr) {
    // A payload that failed wire decoding (or a wiring bug in a test):
    // count and drop before any liveness or cluster bookkeeping — a
    // malformed datagram must not vouch for its claimed sender.
    ++counters_.decode_errors;
    return;
  }
  // Likewise a sender that is not a peer — a UDP frame's `from` is whatever
  // its writer put there. Past this point `from` always has a slot.
  const HostId from = delivery.from;
  if (!from.valid() || from == self() ||
      state_.slot(from) == HostState::npos) {
    ++counters_.unknown_sender;
    return;
  }

  // Authentication gate (Config::auth_enabled): a data frame whose tag is
  // missing or does not verify is dropped here, before *any* bookkeeping —
  // a forged frame must not freshen liveness timers, flip cluster bits, or
  // smuggle in a piggybacked INFO report.
  if (config_.auth_enabled) {
    if (const auto* data = std::get_if<DataMsg>(message)) {
      if (!data->auth.has_value() ||
          !verify_auth_tag(config_.auth_secret, source_, data->seq,
                           data->body.view(), *data->auth)) {
        ++counters_.auth_rejects;
        return;
      }
    }
  }

  // "This set can be updated when a message (of any kind ...) is received
  // from another host j" — the cost-bit rule, unless cluster knowledge is
  // static or disabled.
  if (config_.cluster_knowledge == Config::ClusterKnowledge::kDynamic) {
    state_.update_cluster_from_cost_bit(from, delivery.expensive);
  }
  peer_book(from).last_heard = scheduler_.now();
  if (from == state_.parent()) last_parent_heard_ = scheduler_.now();

  receive(from, *message);
}

// --- ProtocolRules hooks ------------------------------------------------

void BroadcastHost::deliver(const HostState::StoredMessage& message,
                            HostId from, bool gap_fill) {
  ++counters_.deliveries;
  if (observer_ != nullptr) {
    observer_->on_delivered(self(), message.seq);
    if (gap_fill) observer_->on_gapfill_accepted(self(), from, message.seq);
  }
  if (app_deliver_) app_deliver_(message.seq, message.body.view());
}

bool BroadcastHost::rejects_new_max(HostId from, Seq seq) {
  ++counters_.new_max_rejected;
  if (observer_ != nullptr) observer_->on_new_max_rejected(self(), from, seq);
  return true;
}

std::set<HostId> BroadcastHost::attach_exclusions() {
  std::set<HostId> excluded;
  const util::TimePoint now = scheduler_.now();
  std::erase_if(failed_candidates_,
                [now](const auto& kv) { return kv.second <= now; });
  for (const auto& [host, until] : failed_candidates_) excluded.insert(host);
  return excluded;
}

void BroadcastHost::on_cycle_broken() {
  ++counters_.cycles_broken;
  if (observer_ != nullptr) observer_->on_cycle_broken(self());
  RBCAST_INFO(self() << " breaking single-cluster cycle");
}

void BroadcastHost::on_detached(HostId old_parent, bool timeout) {
  if (observer_ != nullptr) observer_->on_detached(self(), old_parent, timeout);
}

void BroadcastHost::on_attach_requested(HostId candidate,
                                        const std::string& rule) {
  RBCAST_DEBUG(self() << " attachment rule " << rule << " -> " << candidate);
  ++counters_.attach_attempts;
  if (observer_ != nullptr) {
    observer_->on_attach_requested(self(), candidate, rule);
  }
}

void BroadcastHost::arm_attach_timer(HostId candidate) {
  attach_timer_ = scheduler_.after(
      config_.attach_ack_timeout,
      [this, candidate] { on_attach_timeout(candidate); });
}

void BroadcastHost::on_attached(HostId parent) {
  scheduler_.cancel(attach_timer_);
  attach_timer_ = util::EventId{};
  last_parent_heard_ = scheduler_.now();
  consecutive_attach_timeouts_ = 0;  // contact: immediate retries re-armed
  ++counters_.attaches_completed;
  if (observer_ != nullptr) observer_->on_attached(self(), parent);
  RBCAST_DEBUG(self() << " attached to " << parent);
}

// --- periodic activities -----------------------------------------------

void BroadcastHost::attachment_round() {
  // A handshake is in flight iff its timeout is armed.
  RBCAST_PARANOID_ASSERT(pending_attach_.valid() == attach_timer_.valid());
  attachment_step(config_.parent_switch_margin, ancestor_walk_);
}

void BroadcastHost::on_attach_timeout(HostId candidate) {
  if (pending_attach_ != candidate) return;  // accept raced the timer
  pending_attach_ = kNoHost;
  attach_timer_ = util::EventId{};
  ++counters_.attach_timeouts;
  if (observer_ != nullptr) observer_->on_attach_timeout(self(), candidate);
  // "If the acknowledgment to this message times out, the procedure is
  // repeated to find another candidate with which the given host can
  // communicate." Exclude the silent one for a few rounds and retry now —
  // but only a bounded number of times in a row. When *every* candidate is
  // silent (total partition), back-to-back immediate retries would keep
  // cycling through the candidate list at rate 1/attach_ack_timeout
  // (exclusions expire faster than a large list is exhausted), so after
  // kAttachRetryBurst consecutive timeouts the retries fall back to the
  // periodic attachment timer.
  failed_candidates_[candidate] =
      scheduler_.now() + 4 * config_.attach_period;
  ++consecutive_attach_timeouts_;
  if (consecutive_attach_timeouts_ <= kAttachRetryBurst) {
    attachment_round();
  }
}

void BroadcastHost::info_round_intra() {
  // Frequent exchange with cluster members and parent-graph neighbors, in
  // ascending id order. The parent is a member: it accepted our request,
  // and on_delivery() drops non-members.
  for (HostId j : state_.all_hosts()) {
    if (!is_intra_rate_peer(j)) continue;
    // A data message that piggybacked our INFO to j within the last round
    // already did this round's job (Section 6) — skip the standalone report.
    if (config_.piggyback_info &&
        scheduler_.now() < peer_book(j).piggyback_until) {
      continue;
    }
    send_info(j);
  }
}

void BroadcastHost::info_round_inter() {
  // Rare exchange with everyone else; this is what lets remote hosts
  // discover who is ahead (attachment options I.3/II.3) and what feeds
  // non-neighbor gap filling.
  for (HostId j : state_.all_hosts()) {
    if (j != self() && !is_intra_rate_peer(j)) send_info(j);
  }
}

void BroadcastHost::gapfill_round_neighbor() {
  state_.for_each_neighbor([&](HostId n) {
    if (state_.in_cluster(n)) fill_gaps(n);  // the rest: far round
  });
}

void BroadcastHost::gapfill_round_far() {
  // Out-of-cluster parent-graph neighbors fill at this lower rate ("less
  // frequently for the members of different clusters"). They are filled
  // every round: a child depends on *us* for new maxima, so nobody else
  // can do this job.
  state_.for_each_neighbor([&](HostId n) {
    if (!state_.in_cluster(n)) fill_gaps(n);
  });
  if (!config_.nonneighbor_gapfill) return;

  // Non-neighbors (the Section 4.4 extension): any up-to-date host can
  // fill them, so each host serves only a small random subset per round —
  // see Config::far_fill_targets for why.
  // A picked candidate's offers are read again at its turn: nothing between
  // the scan and the sends below changes another candidate's offers, and
  // the clock does not move, so the plan matches the scan's.
  far_behind_.clear();
  for (HostId j : state_.all_hosts()) {
    if (j == self() || state_.is_child(j) || j == state_.parent()) continue;
    if (!plan_far_gapfill(state_, j, 1, recent_offers(j)).empty()) {
      far_behind_.push_back(j);
    }
  }
  std::size_t budget = std::min(config_.far_fill_targets, far_behind_.size());
  while (budget-- > 0 && !far_behind_.empty()) {
    const auto pick = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(far_behind_.size()) - 1));
    const HostId j = far_behind_[pick];
    far_behind_.erase(far_behind_.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    fill_gaps(j);
  }
}

void BroadcastHost::maintenance_round() {
  const util::TimePoint now = scheduler_.now();

  // Parent liveness: "time out on a parent that fails to send messages
  // such as the ones containing its INFO set ... the host sets its parent
  // pointer to NIL" and immediately looks for a new parent.
  if (state_.parent().valid() &&
      now - last_parent_heard_ > config_.parent_timeout) {
    ++counters_.parent_timeouts;
    RBCAST_INFO(self() << " parent " << state_.parent() << " timed out");
    detach_from_parent(/*notify=*/false, /*timeout=*/true);
    attachment_round();
  }

  // Child liveness (engineering necessity; see Config::child_timeout).
  // Removing the child under the iterator is safe (HostState::MemberSet).
  for (HostId child : state_.children()) {
    if (now - peer_book(child).last_heard > config_.child_timeout) {
      state_.remove_child(child);
    }
  }

  // Lapsed-offer sweep: keeps the optimistic-offer table bounded even for
  // peers no planner asks about anymore (e.g. removed children).
  for (PeerBook& peer : peers_) {
    std::erase_if(peer.offered,
                  [now](const PeerBook::Offer& o) { return o.expires <= now; });
  }

  // Section 6 pruning: discard state for the prefix every host is known to
  // have.
  if (config_.enable_pruning) {
    const Seq safe = state_.safe_prefix();
    if (safe > state_.info().prune_watermark()) {
      state_.prune(safe);  // bodies and their tags alike
    }
  }
}

// --- send helpers -----------------------------------------------------

void BroadcastHost::send_message(HostId to, ProtocolMessage m) {
  const std::size_t bytes = wire_size(m);
  const char* kind = kind_of(m);
  // Data messages (first sends, forwards and gap fills alike) carry the
  // causal trace id of their broadcast; control traffic stays untraced.
  net::TraceId trace_id = 0;
  if (const auto* data = std::get_if<DataMsg>(&m)) {
    trace_id = net::make_trace_id(source_, data->seq);
    // A piggybacked INFO set freshens the peer like a standalone report;
    // remember when so info_round_intra() can skip the redundant packet.
    if (data->piggyback.has_value()) {
      peer_book(to).piggyback_until =
          scheduler_.now() + config_.info_period_intra;
    }
  }
  endpoint_.send(to, std::any(std::move(m)), bytes, kind, trace_id);
}

DataMsg BroadcastHost::make_data(const HostState::StoredMessage& message,
                                 bool gap_fill) const {
  DataMsg m{message.seq, message.body, gap_fill, std::nullopt, message.auth};
  if (config_.piggyback_info) {
    m.piggyback = InfoMsg{state_.info(), state_.parent()};
  }
  return m;
}

void BroadcastHost::send_data(HostId to,
                              const HostState::StoredMessage& message,
                              DataSend why) {
  send_message(to, make_data(message, /*gap_fill=*/why != DataSend::kForward));
  note_offered(to, message.seq);
  if (why == DataSend::kForward) {
    ++counters_.data_forwarded;
    return;
  }
  ++counters_.gapfills_sent;
  if (observer_ == nullptr) return;
  if (why == DataSend::kRelay) {
    observer_->on_gapfill_relayed(self(), to, message.seq);
  } else {
    observer_->on_gapfill_offered(self(), to, message.seq);
  }
}

BroadcastHost::PeerBook& BroadcastHost::peer_book(HostId j) {
  const std::size_t k = state_.slot(j);
  RBCAST_ASSERT_MSG(k != HostState::npos, "peer is not among all_hosts");
  if (peers_.empty()) peers_.resize(state_.all_hosts().size());  // once
  return peers_[k];
}

void BroadcastHost::note_offered(HostId to, Seq seq) {
  auto& offers = peer_book(to).offered;
  const util::TimePoint expires =
      scheduler_.now() + config_.gapfill_suppress_period;
  auto it = std::lower_bound(
      offers.begin(), offers.end(), seq,
      [](const PeerBook::Offer& o, Seq q) { return o.seq < q; });
  if (it != offers.end() && it->seq == seq) {
    it->expires = expires;
  } else {
    offers.insert(it, PeerBook::Offer{seq, expires});
  }
}

void BroadcastHost::clear_refuted_offers(HostId from, const SeqSet& reported) {
  // `reported` is a full INFO snapshot straight from `from`. Any offered
  // seq it still lacks was lost (or is still in flight — at worst one
  // spurious re-offer): drop the suppression so the next round re-sends
  // without waiting for the time-based expiry. This is what keeps the
  // suppression from delaying genuine loss recovery.
  std::erase_if(
      peer_book(from).offered,
      [&](const PeerBook::Offer& o) { return !reported.contains(o.seq); });
}

std::span<const Seq> BroadcastHost::recent_offers(HostId j) {
  const util::TimePoint now = scheduler_.now();
  auto& offers = peer_book(j).offered;
  // Lapsed offers go: re-offers are allowed again.
  std::erase_if(offers,
                [now](const PeerBook::Offer& o) { return o.expires <= now; });
  offer_seqs_.clear();
  for (const PeerBook::Offer& o : offers) offer_seqs_.push_back(o.seq);
  return offer_seqs_;
}

}  // namespace rbcast::core
