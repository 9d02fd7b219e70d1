#include "model/checker.h"

#include <deque>
#include <sstream>
#include <unordered_set>

#include "model/invariants.h"
#include "util/assert.h"

namespace rbcast::model {

namespace {

// A host step's description, e.g. "h1 info-> h2".
template <class... Parts>
std::string step_name(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

// The fair scheduler's weight for a move. Adversarial moves (drop,
// duplicate) are excluded: liveness is claimed only for intervals where
// communication works (the paper promises nothing under unbounded loss).
// Deliveries are weighted up so queued messages actually move.
int fair_weight(TransitionKind kind) {
  switch (kind) {
    case TransitionKind::kDrop:
    case TransitionKind::kDuplicate:
      return 0;
    case TransitionKind::kDeliver:
      return 16;
    default:
      return 4;
  }
}

}  // namespace

std::string SystemState::fingerprint() const {
  std::ostringstream os;
  os << 'b' << broadcasts_done << ';';
  for (const ModelNode& node : nodes) os << node.fingerprint();
  // In-flight messages form a multiset: order-independent canonical form.
  std::vector<std::string> wire;
  wire.reserve(inflight.size());
  for (const ModelMessage& m : inflight) wire.push_back(m.describe());
  std::sort(wire.begin(), wire.end());
  for (const std::string& w : wire) os << w << ';';
  return os.str();
}

Checker::Checker(ModelConfig config) : config_(std::move(config)) {
  RBCAST_CHECK_ARG(config_.hosts >= 1, "need at least one host");
  RBCAST_CHECK_ARG(
      config_.cluster_of.size() == static_cast<std::size_t>(config_.hosts),
      "cluster_of must cover every host");
}

SystemState Checker::initial_state() const {
  SystemState state;
  for (int i = 0; i < config_.hosts; ++i) {
    state.nodes.emplace_back(HostId{i}, config_);
  }
  return state;
}

void Checker::enqueue_sends(SystemState& state,
                            std::vector<ModelMessage> messages) const {
  for (ModelMessage& m : messages) {
    if (state.inflight.size() >= config_.max_inflight) {
      // Over capacity: the send is lost. Loss at any point is part of the
      // model, so this prunes no behaviour class.
      continue;
    }
    state.inflight.push_back(std::move(m));
  }
}

std::vector<Transition> Checker::successors(const SystemState& state) const {
  using enum TransitionKind;
  std::vector<Transition> out;

  auto node_of = [](SystemState& s, HostId h) -> ModelNode& {
    return s.nodes[static_cast<std::size_t>(h.value)];
  };

  // 1. Source generates the next message.
  if (state.broadcasts_done < config_.max_broadcasts) {
    SystemState next = state;
    const Seq seq = static_cast<Seq>(next.broadcasts_done) + 1;
    const std::string body = "m" + std::to_string(seq);
    next.bodies.push_back(body);
    ++next.broadcasts_done;
    enqueue_sends(next, node_of(next, kSource).broadcast(seq, body));
    out.push_back({kBroadcast, "broadcast#" + std::to_string(seq),
                   std::move(next)});
  }

  // 2-4. Network adversary: deliver / drop / duplicate each message.
  for (std::size_t i = 0; i < state.inflight.size(); ++i) {
    const ModelMessage& m = state.inflight[i];
    {
      SystemState next = state;
      ModelMessage moving = next.inflight[i];
      next.inflight.erase(next.inflight.begin() +
                          static_cast<std::ptrdiff_t>(i));
      const bool expensive = !config_.same_cluster(moving.from, moving.to);
      auto sends = node_of(next, moving.to)
                       .on_message(moving.from, moving.payload, expensive);
      enqueue_sends(next, std::move(sends));
      out.push_back({kDeliver, "deliver " + m.describe(), std::move(next)});
    }
    {
      SystemState next = state;
      next.inflight.erase(next.inflight.begin() +
                          static_cast<std::ptrdiff_t>(i));
      out.push_back({kDrop, "drop " + m.describe(), std::move(next)});
    }
    if (state.inflight.size() < config_.max_inflight) {
      SystemState next = state;
      next.inflight.push_back(next.inflight[i]);
      out.push_back({kDuplicate, "duplicate " + m.describe(), std::move(next)});
    }
  }

  // 5-9. Host steps.
  for (const ModelNode& node : state.nodes) {
    const HostId h = node.self();
    if (h != kSource && !node.pending_attach().valid()) {
      SystemState next = state;
      auto sends = node_of(next, h).attachment_step();
      if (!sends.empty()) {
        enqueue_sends(next, std::move(sends));
        out.push_back({kAttach, step_name(h, " attach-step"), std::move(next)});
      }
    }
    for (const ModelNode& peer : state.nodes) {
      const HostId j = peer.self();
      if (j == h) continue;
      {
        SystemState next = state;
        enqueue_sends(next, node_of(next, h).info_step(j));
        out.push_back({kInfo, step_name(h, " info-> ", j), std::move(next)});
      }
      {
        SystemState next = state;
        auto sends = node_of(next, h).gapfill_step(j);
        if (!sends.empty()) {
          enqueue_sends(next, std::move(sends));
          out.push_back({kGapfill, step_name(h, " gapfill-> ", j),
                         std::move(next)});
        }
      }
    }
    if (node.state().parent().valid()) {
      SystemState next = state;
      node_of(next, h).parent_timeout_step();
      out.push_back({kParentTimeout, step_name(h, " parent-timeout"),
                     std::move(next)});
    }
    if (node.pending_attach().valid()) {
      SystemState next = state;
      node_of(next, h).give_up_attach_step();
      out.push_back({kAttachTimeout, step_name(h, " attach-timeout"),
                     std::move(next)});
    }
  }
  return out;
}

void Checker::check_invariants(const SystemState& state,
                               const std::vector<std::string>& trace,
                               std::vector<Violation>& violations) const {
  namespace inv = invariants;
  auto report = [&](const char* id,
                    const std::optional<std::string>& what) {
    if (what.has_value()) {
      violations.push_back(Violation{id, *what, trace});
    }
  };

  // The predicates themselves are shared with the runtime monitor
  // (src/harness/invariant_monitor.*); see src/model/invariants.h.
  for (const ModelNode& node : state.nodes) {
    report(inv::kExactlyOnce,
           inv::check_exactly_once(node.self(), node.deliveries()));
    report(inv::kIntegrity,
           inv::check_integrity(node.self(), node.delivered_bodies(),
                                state.bodies));
    report(inv::kNoInvention,
           inv::check_no_invention(node.self(), node.state().info().max_seq(),
                                   static_cast<Seq>(state.broadcasts_done)));
    report(inv::kInfoConsistency,
           inv::check_info_consistency(node.self(), node.deliveries().size(),
                                       node.state().info().count()));
    report(inv::kSaneParent,
           inv::check_sane_parent(node.self(), node.state().parent()));
  }
}

ExplorationReport Checker::explore_bfs(int max_depth,
                                       std::uint64_t max_states) {
  ExplorationReport report;
  std::unordered_set<std::string> visited;

  struct Item {
    SystemState state;
    int depth;
    std::vector<std::string> trace;
  };
  std::deque<Item> frontier;

  SystemState init = initial_state();
  visited.insert(init.fingerprint());
  check_invariants(init, {}, report.violations);
  frontier.push_back(Item{std::move(init), 0, {}});
  ++report.states_explored;

  while (!frontier.empty() && report.violations.empty()) {
    Item item = std::move(frontier.front());
    frontier.pop_front();
    if (item.depth >= max_depth) {
      report.truncated = true;
      continue;
    }
    for (auto& [kind, description, next] : successors(item.state)) {
      ++report.transitions_fired;
      const std::string key = next.fingerprint();
      if (!visited.insert(key).second) continue;
      if (report.states_explored >= max_states) {
        report.truncated = true;
        return report;
      }
      ++report.states_explored;
      auto trace = item.trace;
      trace.push_back(description);
      check_invariants(next, trace, report.violations);
      if (!report.violations.empty()) return report;
      frontier.push_back(Item{std::move(next), item.depth + 1,
                              std::move(trace)});
    }
  }
  return report;
}

Checker::WalkEnd Checker::walk(util::Rng& rng, int max_moves, bool fair,
                               std::vector<Violation>& violations) const {
  auto complete = [&](const SystemState& state) {
    if (state.broadcasts_done < config_.max_broadcasts) return false;
    for (const ModelNode& node : state.nodes) {
      if (node.deliveries().size() !=
          static_cast<std::size_t>(config_.max_broadcasts)) {
        return false;
      }
    }
    return true;
  };

  WalkEnd end;
  SystemState state = initial_state();
  std::vector<std::string> trace;
  while (end.moves < max_moves) {
    if (fair && complete(state)) {
      end.complete = true;
      break;
    }
    auto options = successors(state);
    if (options.empty()) break;
    std::size_t pick = 0;
    if (fair) {
      int total = 0;
      for (const Transition& t : options) total += fair_weight(t.kind);
      if (total == 0) break;
      std::int64_t roll = rng.uniform_int(0, total - 1);
      while (roll >= fair_weight(options[pick].kind)) {
        roll -= fair_weight(options[pick++].kind);
      }
    } else {
      pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1));
    }
    trace.push_back(options[pick].description);
    state = std::move(options[pick].next);
    ++end.moves;
    check_invariants(state, trace, violations);
    if (!violations.empty()) break;
  }
  return end;
}

Checker::LivenessReport Checker::explore_liveness(int walks, int max_steps,
                                                  std::uint64_t seed) {
  LivenessReport report;
  report.walks = walks;
  util::RngFactory rngs(seed);
  double total_steps = 0.0;
  for (int w = 0; w < walks; ++w) {
    util::Rng rng = rngs.stream("liveness", w);
    const WalkEnd end = walk(rng, max_steps, /*fair=*/true, report.violations);
    if (!report.violations.empty()) return report;
    if (end.complete) {
      ++report.completed;
      total_steps += end.moves;
    }
  }
  if (report.completed > 0) {
    report.mean_steps_to_complete = total_steps / report.completed;
  }
  return report;
}

ExplorationReport Checker::explore_random(int walks, int steps,
                                          std::uint64_t seed) {
  ExplorationReport report;
  util::RngFactory rngs(seed);
  for (int w = 0; w < walks && report.violations.empty(); ++w) {
    util::Rng rng = rngs.stream("walk", w);
    const auto moves = static_cast<std::uint64_t>(
        walk(rng, steps, /*fair=*/false, report.violations).moves);
    report.transitions_fired += moves;
    report.states_explored += moves;
  }
  return report;
}

}  // namespace rbcast::model
