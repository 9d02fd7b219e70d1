// The attachment procedure (Sections 4.2-4.3) as pure decision logic.
//
// "At the heart of the algorithm is the attachment procedure, which is
// periodically activated at every host. The purpose of this procedure is to
// make sure that the host is attached to a 'good' parent, and if that is
// not the case, find a better one."
//
// The procedure has three cases, chosen by where the current parent sits:
//
//   Case I   — no parent:
//     (1) attach to an in-cluster leader with a greater INFO set
//     (2) attach to an in-cluster leader with an equal-max INFO set and a
//         greater static order number
//     (3) attach to an out-of-cluster host with a greater INFO set
//         (the host thereby becomes a cluster leader)
//   Case II  — parent in a different cluster (the host is a leader):
//     (1),(2) as case I (consolidate multiple leaders into one)
//     (3) attach to an out-of-cluster host whose INFO set exceeds the
//         *current parent's* (the delay-minimization rule)
//   Case III — parent in the same cluster:
//     (1) attach directly to the ancestor (other than the parent) that is
//         an in-cluster leader with an INFO set >= one's own
//     plus cycle detection: if following parent pointers leads back to
//     self within one cluster, the member with the highest static order
//     must detach (Section 4.3's special rule).
//
// These functions only *decide*; BroadcastHost performs the attach
// handshake. Keeping them pure makes every option unit-testable against a
// hand-built HostState.
#pragma once

#include <set>
#include <string>

#include "core/host_state.h"

namespace rbcast::core {

struct AttachmentDecision {
  enum class Action {
    kNone,        // current parent is fine (or no candidate exists)
    kAttach,      // request attachment to `candidate`
    kBreakCycle,  // single-cluster cycle detected and we have the highest
                  // order on it: detach, then re-run (case I) immediately
  };

  Action action{Action::kNone};
  HostId candidate{kNoHost};
  // Which rule fired: "I.1", "I.2", "I.3", "II.3", "III.1", "cycle".
  // Empty for kNone. For observability and tests.
  std::string rule;
};

// Runs the candidate selection for host `state.self()`.
//
// `excluded` holds hosts that recently failed the attach handshake
// ("If the acknowledgment ... times out, the procedure is repeated to find
// another candidate"); they are skipped this round.
// `parent_switch_margin` implements Config::parent_switch_margin for
// case II option (3).
// `walk` is the caller's buffer for case III's ancestor chain
// (HostState::ancestors_of_self); a caller that keeps one across rounds
// makes a steady-state decision allocate nothing.
[[nodiscard]] AttachmentDecision run_attachment(
    const HostState& state, const std::set<HostId>& excluded,
    Seq parent_switch_margin, HostState::AncestorWalk& walk);

// The same with a fresh walk buffer per call (tests, the model checker).
[[nodiscard]] inline AttachmentDecision run_attachment(
    const HostState& state, const std::set<HostId>& excluded,
    Seq parent_switch_margin = 0) {
  HostState::AncestorWalk walk;
  return run_attachment(state, excluded, parent_switch_margin, walk);
}

}  // namespace rbcast::core
