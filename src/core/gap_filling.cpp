#include "core/gap_filling.h"

namespace rbcast::core {

namespace {

// The first `burst` elements of state.info() that `known` lacks, that are
// at most `cap` and that are not in `offered`, restricted to messages
// whose bodies are still stored (pruning may have released old payloads;
// what is pruned is by definition already at every host, so nothing is
// lost by skipping it). Allocates only for what it keeps.
std::vector<Seq> plan(const HostState& state, const SeqSet& known, Seq cap,
                      std::size_t burst, std::span<const Seq> offered) {
  std::vector<Seq> out;
  if (burst == 0) return out;
  std::size_t planned = 0;
  auto next_offer = offered.begin();  // both walks ascend
  state.info().for_each_missing(known, cap, [&](Seq q) {
    while (next_offer != offered.end() && *next_offer < q) ++next_offer;
    if (next_offer != offered.end() && *next_offer == q) return true;
    if (state.body_of(q) != nullptr) out.push_back(q);
    return ++planned < burst;
  });
  return out;
}

}  // namespace

std::vector<Seq> plan_attach_backfill(const HostState& state,
                                      const SeqSet& child_info,
                                      std::size_t burst,
                                      std::span<const Seq> offered) {
  return plan(state, child_info, state.info().max_seq(), burst, offered);
}

std::vector<Seq> plan_neighbor_gapfill(const HostState& state, HostId j,
                                       bool j_is_child, std::size_t burst,
                                       std::span<const Seq> offered) {
  const SeqSet& known = state.map(j);
  // A child may be sent new maxima (we are its parent); our parent only
  // what lies at or below its actual known max.
  const Seq cap = j_is_child ? state.info().max_seq() : known.max_seq();
  return plan(state, known, cap, burst, offered);
}

std::vector<Seq> plan_far_gapfill(const HostState& state, HostId j,
                                  std::size_t burst,
                                  std::span<const Seq> offered) {
  const SeqSet& known = state.map(j);
  if (known.empty()) return {};  // never heard of j's INFO; nothing safe to say
  return plan(state, known, known.max_seq(), burst, offered);
}

}  // namespace rbcast::core
