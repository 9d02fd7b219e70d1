#include "core/attachment.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::core {

namespace {

// Shared candidate filter: a host never proposes itself, a recently failed
// candidate, its current parent (re-attaching is a no-op), a known child,
// or a host it believes is attached to itself (both would form a trivial
// two-cycle on purpose).
bool basically_eligible(const HostState& s, HostId j,
                        const std::set<HostId>& excluded) {
  if (j == s.self()) return false;
  if (excluded.contains(j)) return false;
  if (j == s.parent()) return false;
  if (s.is_child(j)) return false;
  if (s.parent_of(j) == s.self()) return false;
  return true;
}

// "a cluster leader" from i's point of view: a host whose parent is not in
// i's cluster (a NIL parent counts — Section 4.1: "any host whose parent is
// not in the same cluster will be regarded as a cluster leader").
bool is_leader_view(const HostState& s, HostId j) {
  const HostId pj = s.parent_of(j);
  return !pj.valid() || !s.in_cluster(pj);
}

// Picks the best among candidates satisfying `pred`: maximal INFO maximum,
// then maximal static order. The INFO criterion serves delay (attach to
// whoever is most up to date); the order criterion makes ties
// deterministic and — for option (2) — drives all leaders of a cluster to
// consolidate under the single highest-order one.
template <typename Pred>
HostId best_candidate(const HostState& s, const std::set<HostId>& excluded,
                      Pred pred) {
  HostId best = kNoHost;
  Seq best_max = 0;
  int best_order = -1;
  for (HostId j : s.all_hosts()) {
    if (!basically_eligible(s, j, excluded)) continue;
    if (!pred(j)) continue;
    const Seq jmax = s.map(j).max_seq();
    const int jorder = s.order(j);
    if (!best.valid() || jmax > best_max ||
        (jmax == best_max && jorder > best_order)) {
      best = j;
      best_max = jmax;
      best_order = jorder;
    }
  }
  return best;
}

// Case I / II option (1): in-cluster leader with a strictly greater INFO set.
HostId option_1(const HostState& s, const std::set<HostId>& excluded) {
  return best_candidate(s, excluded, [&](HostId j) {
    return s.in_cluster(j) && is_leader_view(s, j) &&
           s.info().less_than(s.map(j));
  });
}

// Case I / II option (2): in-cluster leader with an equal-max INFO set and
// a greater static order number.
HostId option_2(const HostState& s, const std::set<HostId>& excluded) {
  return best_candidate(s, excluded, [&](HostId j) {
    return s.in_cluster(j) && is_leader_view(s, j) &&
           s.info().max_equal(s.map(j)) &&
           s.order(s.self()) < s.order(j);
  });
}

// Case I option (3): out-of-cluster host with a strictly greater INFO set.
HostId option_i3(const HostState& s, const std::set<HostId>& excluded) {
  return best_candidate(s, excluded, [&](HostId j) {
    return !s.in_cluster(j) && s.info().less_than(s.map(j));
  });
}

// Case II option (3): out-of-cluster host whose INFO set exceeds the
// current parent's (by more than the optional hysteresis margin).
HostId option_ii3(const HostState& s, const std::set<HostId>& excluded,
                  Seq margin) {
  const Seq parent_max = s.map(s.parent()).max_seq();
  return best_candidate(s, excluded, [&](HostId j) {
    return !s.in_cluster(j) && s.map(j).max_seq() > parent_max + margin;
  });
}

// Case III option (1): an ancestor other than the parent that is an
// in-cluster leader with an INFO set greater than or max-equal to ours.
HostId option_iii1(const HostState& s, const std::set<HostId>& excluded,
                   const std::vector<HostId>& ancestors) {
  for (HostId j : ancestors) {
    if (j == s.parent()) continue;  // "other than parent"
    if (!basically_eligible(s, j, excluded)) continue;
    if (!s.in_cluster(j)) continue;
    if (!is_leader_view(s, j)) continue;
    if (s.map(j).max_seq() >= s.info().max_seq()) return j;
  }
  return kNoHost;
}

AttachmentDecision decide(AttachmentDecision::Action action, HostId candidate,
                          std::string rule) {
  return AttachmentDecision{action, candidate, std::move(rule)};
}

}  // namespace

AttachmentDecision run_attachment(const HostState& state,
                                  const std::set<HostId>& excluded,
                                  Seq parent_switch_margin,
                                  HostState::AncestorWalk& walk) {
  const HostId parent = state.parent();

  if (!parent.valid()) {
    // Case I: no parent.
    if (HostId j = option_1(state, excluded); j.valid()) {
      return decide(AttachmentDecision::Action::kAttach, j, "I.1");
    }
    if (HostId j = option_2(state, excluded); j.valid()) {
      return decide(AttachmentDecision::Action::kAttach, j, "I.2");
    }
    if (HostId j = option_i3(state, excluded); j.valid()) {
      return decide(AttachmentDecision::Action::kAttach, j, "I.3");
    }
    return {};
  }

  if (!state.in_cluster(parent)) {
    // Case II: parent in a different cluster — we are a cluster leader.
    if (HostId j = option_1(state, excluded); j.valid()) {
      return decide(AttachmentDecision::Action::kAttach, j, "II.1");
    }
    if (HostId j = option_2(state, excluded); j.valid()) {
      return decide(AttachmentDecision::Action::kAttach, j, "II.2");
    }
    if (HostId j = option_ii3(state, excluded, parent_switch_margin);
        j.valid()) {
      return decide(AttachmentDecision::Action::kAttach, j, "II.3");
    }
    return {};
  }

  // Case III: parent in the same cluster.
  state.ancestors_of_self(walk);
  if (walk.cycle) {
    // A cycle through self. The special rule applies only when the cycle
    // is contained in one cluster (multi-cluster cycles break via II.3 at
    // a leader); "the host with the highest static order number on the
    // cycle shall detach from its parent".
    const bool single_cluster =
        std::all_of(walk.ancestors.begin(), walk.ancestors.end(),
                    [&](HostId h) { return state.in_cluster(h); });
    if (single_cluster) {
      const int my_order = state.order(state.self());
      const bool i_am_highest =
          std::all_of(walk.ancestors.begin(), walk.ancestors.end(),
                      [&](HostId h) { return state.order(h) < my_order; });
      if (i_am_highest) {
        return decide(AttachmentDecision::Action::kBreakCycle, kNoHost,
                      "cycle");
      }
    }
    return {};
  }

  if (HostId j = option_iii1(state, excluded, walk.ancestors); j.valid()) {
    return decide(AttachmentDecision::Action::kAttach, j, "III.1");
  }
  return {};
}

}  // namespace rbcast::core
