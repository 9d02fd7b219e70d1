// The protocol's rules for one host, written once.
//
// What a host does when a message arrives (the acceptance rule, forwarding
// and gap-fill relaying of Sections 4.1 and 4.4, the INFO/parent exchange
// and the attach handshake of Sections 4.2-4.3), how the source starts a
// broadcast, and the attachment procedure's step (decide, break a cycle,
// decide again, request). core::BroadcastHost runs these rules over a
// transport; model::ModelNode runs the very same code inside the model
// checker, so what rbcast_check proves is about the shipped rules.
//
// ProtocolRules<Host> is a CRTP base. It holds the state the rules act on
// (HostState and the attach handshake in flight) and calls back into Host,
// resolved at compile time, for everything a deployed host and the model
// do differently. Host provides (privately, befriending ProtocolRules):
//
//   bool is_source() const;
//   // How messages go out. A data send also says why, so a host can count
//   // and trace forwards, relays and gap fills apart.
//   void send_message(HostId to, ProtocolMessage m);
//   void send_data(HostId to, const HostState::StoredMessage& m, DataSend);
//   // The offer overlay (gap_filling.h): recent offers toward j, ascending;
//   // and dropping the offers a fresh INFO report from `from` refutes.
//   std::span<const Seq> recent_offers(HostId j);
//   void clear_refuted_offers(HostId from, const SeqSet& reported);
//   // Whether a received tag is stored and relayed with its body.
//   bool keeps_auth() const;
//   // A first receipt (or the source's own message) reaches the host:
//   // `gap_fill` is false for a new maximum.
//   void deliver(const HostState::StoredMessage& m, HostId from,
//                bool gap_fill);
//   // A data message the host already holds arrived from `from`.
//   void on_duplicate(HostId from, const DataMsg& m);
//   // A new maximum arrived from `from`, which is not the parent; true
//   // discards it (the acceptance rule).
//   bool rejects_new_max(HostId from, Seq seq);
//   // The attachment step's side effects: candidates to skip this round,
//   // and the bookkeeping around the handshake in flight.
//   std::set<HostId> attach_exclusions();
//   void on_cycle_broken();
//   void on_detached(HostId old_parent, bool timeout);
//   void on_attach_requested(HostId candidate, const std::string& rule);
//   void arm_attach_timer(HostId candidate);  // after the request is sent
//   void on_attached(HostId parent);          // before the old one hears
#pragma once

#include <algorithm>
#include <cstddef>
#include <set>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/attachment.h"
#include "core/gap_filling.h"
#include "core/host_state.h"
#include "core/messages.h"
#include "util/assert.h"

namespace rbcast::core {

// Max messages back-filled immediately when a new child attaches ("the
// parent ... forwards to the child all those messages that the child is
// missing"); the periodic filler finishes longer tails.
inline constexpr std::size_t kAttachBackfillBurst = 64;

// Why a data message goes out.
enum class DataSend {
  kForward,  // a new maximum down the tree (the source's first send too)
  kRelay,    // a received gap fill passed on to a neighbor that lacks it
  kGapFill,  // a gap fill this host originates (back-fill, periodic rounds)
};

template <class Host>
class ProtocolRules {
 protected:
  ProtocolRules(HostId self, std::vector<HostId> all_hosts, HostId source)
      : state_(self, std::move(all_hosts), source) {}

  // A message from the member `from` arrived, after the host's own gates
  // and the cost-bit update.
  void receive(HostId from, const ProtocolMessage& message);

  // Source only: records its new message and sends it to its children.
  // "Broadcast is initiated when the source sends a message to its cluster
  // neighbors" — in parent-graph terms, to its children.
  void originate(const HostState::StoredMessage& message) {
    accept(message, /*was_new_max=*/true, state_.self());
  }

  // One run of the attachment procedure. `walk` is the caller's buffer for
  // run_attachment's ancestor chain.
  void attachment_step(Seq parent_switch_margin,
                       HostState::AncestorWalk& walk);

  // Sets the parent pointer to NIL, telling the old parent when `notify`.
  void detach_from_parent(bool notify, bool timeout);

  // Sends stored message `seq` to `to` as a gap fill this host originates.
  void send_gapfill(HostId to, Seq seq) {
    const HostState::StoredMessage* message = state_.stored(seq);
    RBCAST_ASSERT(message != nullptr);
    host().send_data(to, *message, DataSend::kGapFill);
  }

  HostState state_;
  // The candidate an AttachRequest went to, until it accepts or the host
  // gives up; kNoHost when no handshake is in flight.
  HostId pending_attach_{kNoHost};

 private:
  Host& host() { return static_cast<Host&>(*this); }

  void handle_data(HostId from, const DataMsg& m);
  void accept(const HostState::StoredMessage& message, bool was_new_max,
              HostId from);
  void handle_info(HostId from, const InfoMsg& m);
  void handle_attach_request(HostId from, const AttachRequest& m);
  void handle_attach_accept(HostId from, const AttachAccept& m);
};

template <class Host>
void ProtocolRules<Host>::receive(HostId from, const ProtocolMessage& message) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DataMsg>) {
          handle_data(from, m);
        } else if constexpr (std::is_same_v<T, InfoMsg>) {
          handle_info(from, m);
        } else if constexpr (std::is_same_v<T, AttachRequest>) {
          handle_attach_request(from, m);
        } else if constexpr (std::is_same_v<T, AttachAccept>) {
          handle_attach_accept(from, m);
        } else {
          static_assert(std::is_same_v<T, DetachNotice>);
          state_.remove_child(from);
        }
      },
      message);
}

// --- data path --------------------------------------------------------

template <class Host>
void ProtocolRules<Host>::handle_data(HostId from, const DataMsg& m) {
  // Piggybacked control state (Section 6) is processed like a standalone
  // INFO message, before any accept/discard decision.
  if (m.piggyback.has_value()) {
    handle_info(from, InfoMsg{m.piggyback->first, m.piggyback->second});
  }
  // Receiving a data message from j proves j has it.
  state_.learn_has(from, m.seq);

  if (state_.has_message(m.seq)) {
    // "A message is also discarded if the recipient host has previously
    // accepted it."
    host().on_duplicate(from, m);
    return;
  }
  if (host().is_source()) return;  // the source originates the stream

  const bool new_max = m.seq > state_.info().max_seq();
  // "a host can accept a message sequence-numbered higher than any it has
  // received so far, only from its parent. If such a message arrives from
  // any other host, it is discarded."
  if (new_max && from != state_.parent() &&
      host().rejects_new_max(from, m.seq)) {
    return;
  }
  // A tag the host verified is stored with the body: forwards and gap
  // fills re-attach the source's original signature.
  accept({m.seq, m.body, host().keeps_auth() ? m.auth : std::nullopt},
         new_max, from);
}

template <class Host>
void ProtocolRules<Host>::accept(const HostState::StoredMessage& message,
                                 bool was_new_max, HostId from) {
  const Seq seq = message.seq;
  const bool fresh = state_.record_message(seq, message.body, message.auth);
  RBCAST_ASSERT(fresh);
  host().deliver(message, from, /*gap_fill=*/!was_new_max);

  if (was_new_max) {
    // "upon receipt of a broadcast message, a host sends it on to all its
    // children" (skipping children known to have it already).
    for (HostId child : state_.children()) {
      if (child == from) continue;
      if (state_.map(child).contains(seq)) continue;
      host().send_data(child, message, DataSend::kForward);
    }
  } else {
    // "When a host receives a gap filling message ..., it forwards it to
    // all those of its parent graph neighbors (its children and its
    // parent) that according to its MAP do not have it."
    state_.for_each_neighbor([&](HostId n) {
      if (n == from) return;
      if (state_.map(n).contains(seq)) return;
      const std::span<const Seq> offered = host().recent_offers(n);
      if (std::binary_search(offered.begin(), offered.end(), seq)) {
        return;  // just offered it
      }
      host().send_data(n, message, DataSend::kRelay);
    });
  }
}

// --- control path ---------------------------------------------------------

template <class Host>
void ProtocolRules<Host>::handle_info(HostId from, const InfoMsg& m) {
  host().clear_refuted_offers(from, m.info);
  state_.learn_info(from, m.info);
  state_.learn_parent(from, m.parent);
  // Reconcile CHILDREN with the sender's own claim. This is what makes the
  // parent-pointer exchange load-bearing: a lost AttachAccept or a lost
  // DetachNotice would otherwise leave the two ends disagreeing about the
  // edge — and a host whose parent does not list it as a child can never
  // receive new maxima.
  if (m.parent == state_.self()) {
    state_.add_child(from);
  } else {
    state_.remove_child(from);
  }
}

template <class Host>
void ProtocolRules<Host>::handle_attach_request(HostId from,
                                                const AttachRequest& m) {
  host().clear_refuted_offers(from, m.info);
  state_.learn_info(from, m.info);
  state_.add_child(from);
  // The requester will set its parent pointer to us upon our accept.
  state_.learn_parent(from, state_.self());
  host().send_message(from, AttachAccept{state_.info(), state_.parent()});

  // "the parent examines its new child's INFO set and forwards to the
  // child all those messages that the child is missing and that the
  // parent has."
  for (Seq seq : plan_attach_backfill(state_, m.info, kAttachBackfillBurst,
                                      host().recent_offers(from))) {
    send_gapfill(from, seq);
  }
}

template <class Host>
void ProtocolRules<Host>::handle_attach_accept(HostId from,
                                               const AttachAccept& m) {
  host().clear_refuted_offers(from, m.info);
  state_.learn_info(from, m.info);
  state_.learn_parent(from, m.parent);

  if (pending_attach_ == from) {
    pending_attach_ = kNoHost;
    const HostId old_parent = state_.parent();
    state_.set_parent(from);
    state_.remove_child(from);  // a host cannot be both parent and child
    host().on_attached(from);
    // "The old parent, if any, is also notified of the change."
    if (old_parent.valid() && old_parent != from) {
      host().send_message(old_parent, DetachNotice{});
    }
  } else if (from != state_.parent()) {
    // A stale accept from an abandoned attempt: `from` now believes we are
    // its child. Correct its CHILDREN set.
    host().send_message(from, DetachNotice{});
  }
}

// --- attachment -----------------------------------------------------------

template <class Host>
void ProtocolRules<Host>::attachment_step(Seq parent_switch_margin,
                                          HostState::AncestorWalk& walk) {
  // "The procedure is run at all hosts but the source."
  if (host().is_source()) return;
  if (pending_attach_.valid()) return;  // handshake already in flight

  const std::set<HostId> excluded = host().attach_exclusions();
  auto decision = run_attachment(state_, excluded, parent_switch_margin, walk);
  if (decision.action == AttachmentDecision::Action::kBreakCycle) {
    host().on_cycle_broken();
    detach_from_parent(/*notify=*/true, /*timeout=*/false);
    // "... shall detach from its parent and go through the appropriate
    // options for finding a new one" — i.e. case I, immediately.
    decision = run_attachment(state_, excluded, parent_switch_margin, walk);
  }
  if (decision.action == AttachmentDecision::Action::kAttach) {
    pending_attach_ = decision.candidate;
    host().on_attach_requested(decision.candidate, decision.rule);
    host().send_message(decision.candidate, AttachRequest{state_.info()});
    host().arm_attach_timer(decision.candidate);
  }
}

template <class Host>
void ProtocolRules<Host>::detach_from_parent(bool notify, bool timeout) {
  const HostId old_parent = state_.parent();
  state_.set_parent(kNoHost);
  if (!old_parent.valid()) return;
  host().on_detached(old_parent, timeout);
  if (notify) host().send_message(old_parent, DetachNotice{});
}

}  // namespace rbcast::core
