// Gap-filling decision logic (Section 4.4), pure over HostState.
//
// Three mechanisms redeliver lost messages:
//  1. attach-time back-fill — a new parent forwards everything the child is
//     missing (planned by plan_attach_backfill);
//  2. periodic neighbor gap fill — "every host periodically tries to fill
//     its parent graph neighbors' gaps" (plan_neighbor_gapfill);
//  3. periodic non-neighbor gap fill — the extension that handles the
//     Figure 4.1 partition scenario (plan_far_gapfill).
//
// A crucial constraint shapes the plans: a host accepts a message with a
// sequence number above its current maximum only from its parent. So we may
// push *new maxima* only to our own children; toward anyone else (our
// parent, or a non-neighbor) offers are capped at the recipient's known
// maximum — "they do not alter the < order among INFO sets".
#pragma once

#include <span>
#include <vector>

#include "core/host_state.h"

namespace rbcast::core {

// Every planner takes an optional `offered` overlay: the sequence numbers
// already offered to this peer within Config::gapfill_suppress_period,
// ascending and distinct. A plan skips them as if the peer's MAP contained
// them (an optimistic, time-bounded fold — see the Config field for the
// rationale), except that the recipient-max cap is always computed from
// the *actual* MAP: an offer must never be pushed above the max the
// recipient would accept. The overlay is applied without building a set:
// the gap walk (SeqSet::for_each_missing) steps past the offered seqs and
// counts only the others toward the burst, which is the plan that folding
// the offers into a copy of the MAP would give.

// Messages to forward to a newly attached child `child`, whose INFO set
// `child_info` arrived in its AttachRequest. Uncapped (we are its parent
// now), limited to `burst`, restricted to bodies we still hold.
[[nodiscard]] std::vector<Seq> plan_attach_backfill(
    const HostState& state, const SeqSet& child_info, std::size_t burst,
    std::span<const Seq> offered = {});

// Periodic plan for a parent-graph neighbor `j`. If `j_is_child`, new
// maxima may be included; otherwise (j is our parent) offers are capped at
// map(j)'s maximum.
[[nodiscard]] std::vector<Seq> plan_neighbor_gapfill(
    const HostState& state, HostId j, bool j_is_child, std::size_t burst,
    std::span<const Seq> offered = {});

// Periodic plan for a non-neighbor `j` (always capped at j's known max).
[[nodiscard]] std::vector<Seq> plan_far_gapfill(
    const HostState& state, HostId j, std::size_t burst,
    std::span<const Seq> offered = {});

}  // namespace rbcast::core
