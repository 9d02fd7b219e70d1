// Abstract protocol model for exhaustive checking.
//
// The paper's companion technical report [Garc87] gives a formal
// specification of the algorithm; this module provides the executable
// counterpart: a timer-free, side-effect-free model of one protocol host
// that runs the production rules — core::ProtocolRules, the very code
// core::BroadcastHost runs for message receipt, the source's first send,
// the attachment step and a periodic round's move toward one peer — over
// the production HostState, attachment procedure and gap-fill planners.
// The checker (src/model/checker.h)
// explores interleavings of these transitions under an adversarial
// network — any delivery order, loss and duplication at any point — and
// verifies safety invariants in every reachable state.
//
// Differences from the simulator host, by design:
//  * periodic activities are explicit transitions the explorer fires at
//    arbitrary times (a superset of any timer schedule); there are no
//    timers, so a parent or attach timeout is a transition too;
//  * INFO exchange and gap filling target one peer per transition, which
//    runs the host's per-peer rule (send_info, fill_gaps, burst and all);
//    the explorer composes rounds out of them, with no rate classes,
//    piggyback skip or random pick of non-neighbors;
//  * no pruning (the checker compares full INFO contents), no offer
//    suppression (recent_offers() is always empty), no exclusion of
//    silent candidates, no piggybacking and no authentication tags;
//  * cluster ground truth is a static map, and the cost bit of a delivery
//    derives from it — equivalent to the paper's assumption that the
//    network marks inter-cluster deliveries;
//  * the mutants (ModelConfig) live only in this node's hooks.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/host_state.h"
#include "core/messages.h"
#include "core/protocol_rules.h"

namespace rbcast::model {

using core::ProtocolMessage;
using core::Seq;

// The model's source: every configuration has a host h0.
inline constexpr HostId kSource{0};

struct ModelConfig {
  int hosts{3};
  // cluster_of[h] = ground-truth cluster index of host h.
  std::vector<int> cluster_of{0, 0, 0};
  // The source (kSource) may generate up to this many messages.
  int max_broadcasts{2};
  // In-flight message capacity; sends beyond it are lost (loss is legal
  // in the model, so capacity pruning never hides behaviours, it only
  // bounds the state space).
  std::size_t max_inflight{4};

  // --- mutations (checker self-tests) ------------------------------------
  // Deliver duplicates to the application (breaks exactly-once).
  bool mutant_double_delivery{false};
  // Accept new maxima from any host, not just the parent (breaks the
  // acceptance rule; surfaces as INFO divergence ahead of the parent).
  bool mutant_accept_from_anyone{false};

  [[nodiscard]] bool same_cluster(HostId a, HostId b) const {
    return cluster_of[static_cast<std::size_t>(a.value)] ==
           cluster_of[static_cast<std::size_t>(b.value)];
  }
};

// A message in the adversarial network.
struct ModelMessage {
  HostId from;
  HostId to;
  ProtocolMessage payload;

  [[nodiscard]] std::string describe() const;
};

// One protocol host, timer-free.
class ModelNode : private core::ProtocolRules<ModelNode> {
 public:
  ModelNode(HostId self, const ModelConfig& config);

  // Copyable: the checker clones system states freely.
  ModelNode(const ModelNode&) = default;
  ModelNode& operator=(const ModelNode&) = default;

  [[nodiscard]] HostId self() const { return state_.self(); }
  [[nodiscard]] const core::HostState& state() const { return state_; }
  [[nodiscard]] HostId pending_attach() const { return pending_attach_; }

  // Application-level delivery counts per sequence number (the
  // exactly-once invariant is |count| <= 1 for every seq).
  [[nodiscard]] const std::map<Seq, int>& deliveries() const {
    return deliveries_;
  }
  [[nodiscard]] const std::map<Seq, std::string>& delivered_bodies() const {
    return delivered_bodies_;
  }

  // --- transitions; each returns the messages it sends -------------------

  // Source only: generate the next data message.
  std::vector<ModelMessage> broadcast(Seq seq, const std::string& body);

  // Deliver one network message to this node. `expensive` is the cost
  // bit, derived from the static cluster map by the caller.
  std::vector<ModelMessage> on_message(HostId from,
                                       const ProtocolMessage& message,
                                       bool expensive);

  // The periodic activities as explicit steps.
  std::vector<ModelMessage> attachment_step();
  std::vector<ModelMessage> info_step(HostId to);
  std::vector<ModelMessage> gapfill_step(HostId to);
  void parent_timeout_step();
  void give_up_attach_step() { pending_attach_ = kNoHost; }

  // Canonical serialization for state deduplication.
  [[nodiscard]] std::string fingerprint() const;

 private:
  friend class core::ProtocolRules<ModelNode>;

  // --- ProtocolRules hooks (see core/protocol_rules.h) -------------------
  [[nodiscard]] bool is_source() const { return self() == kSource; }
  void send_message(HostId to, ProtocolMessage m) {
    sends_.push_back(ModelMessage{self(), to, std::move(m)});
  }
  void send_data(HostId to, const core::HostState::StoredMessage& m,
                 core::DataSend why) {
    send_message(to, core::DataMsg{m.seq, m.body,
                                   why != core::DataSend::kForward,
                                   std::nullopt, m.auth});
  }
  [[nodiscard]] std::span<const Seq> recent_offers(HostId) const {
    return {};
  }
  void clear_refuted_offers(HostId, const core::SeqSet&) {}
  [[nodiscard]] bool keeps_auth() const { return false; }
  void deliver(const core::HostState::StoredMessage& m, HostId, bool) {
    ++deliveries_[m.seq];
    delivered_bodies_[m.seq] = std::string(m.body.view());
  }
  // The double-delivery mutant "forgets" the discard rule.
  void on_duplicate(HostId from, const core::DataMsg& m) {
    if (mutant_double_delivery_) deliver({m.seq, m.body, m.auth}, from, false);
  }
  // The accept-from-anyone mutant drops the acceptance rule.
  bool rejects_new_max(HostId, Seq) { return !mutant_accept_from_anyone_; }
  [[nodiscard]] std::set<HostId> attach_exclusions() const { return {}; }
  void on_cycle_broken() {}
  void on_detached(HostId, bool) {}
  void on_attach_requested(HostId, const std::string&) {}
  void arm_attach_timer(HostId) {}
  void on_attached(HostId) {}

  // The messages the current transition sent, handed out by its return.
  [[nodiscard]] std::vector<ModelMessage> take_sends() {
    return std::exchange(sends_, {});
  }

  bool mutant_double_delivery_;
  bool mutant_accept_from_anyone_;
  std::map<Seq, int> deliveries_;
  std::map<Seq, std::string> delivered_bodies_;
  std::vector<ModelMessage> sends_;
};

}  // namespace rbcast::model
