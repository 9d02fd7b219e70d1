// Exhaustive and randomized exploration of the protocol model.
//
// The adversarial network is a bounded multiset of in-flight messages; the
// explorer may, at any state:
//   * deliver any in-flight message (arbitrary delay / reordering),
//   * drop any in-flight message (silent loss),
//   * duplicate any in-flight message,
//   * fire any host's attachment / INFO / gap-fill step toward any peer,
//   * expire any host's parent (timeout) or pending attach (ack timeout),
//   * let the source generate the next broadcast.
// This transition set strictly contains every schedule the discrete-event
// simulator can produce, so an invariant proven here over a bounded
// configuration holds for every such simulation of that configuration.
//
// Safety invariants checked in every reachable state:
//   I1 exactly-once — no application delivers any message twice;
//   I2 integrity    — every delivered body equals what the source sent;
//   I3 no invention — no INFO set contains a sequence number the source
//                     has not generated;
//   I4 consistency  — a host's delivered set equals its INFO set;
//   I5 sane parents — no host is its own parent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/model_node.h"
#include "util/rng.h"

namespace rbcast::model {

// Complete system state; value type (the explorer clones it freely).
struct SystemState {
  std::vector<ModelNode> nodes;
  std::vector<ModelMessage> inflight;
  int broadcasts_done{0};
  // body of message q is bodies[q-1]
  std::vector<std::string> bodies;

  [[nodiscard]] std::string fingerprint() const;
};

// What a transition does: a network move on one in-flight message, or a
// host step.
enum class TransitionKind {
  kBroadcast,      // the source generates the next message
  kDeliver,        // an in-flight message arrives
  kDrop,           // an in-flight message is lost
  kDuplicate,      // an in-flight message is copied
  kAttach,         // a host runs the attachment procedure
  kInfo,           // a host sends its INFO report to one peer
  kGapfill,        // a host fills one peer's gaps
  kParentTimeout,  // a host declares its parent dead
  kAttachTimeout,  // a host gives up on the handshake in flight
};

// One enabled transition and the state it leads to.
struct Transition {
  TransitionKind kind;
  std::string description;
  SystemState next;
};

struct Violation {
  std::string invariant;   // "I1".."I5"
  std::string description;
  std::vector<std::string> trace;  // transition descriptions from init
};

struct ExplorationReport {
  std::uint64_t states_explored{0};
  std::uint64_t transitions_fired{0};
  bool truncated{false};  // hit a bound before exhausting the space
  std::vector<Violation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
};

class Checker {
 public:
  explicit Checker(ModelConfig config);

  // Exhaustive BFS from the initial state, bounded by depth and by the
  // number of distinct states. Stops at the first violation.
  [[nodiscard]] ExplorationReport explore_bfs(int max_depth,
                                              std::uint64_t max_states);

  // Many random schedules of bounded length; cheaper and deeper than BFS.
  [[nodiscard]] ExplorationReport explore_random(int walks, int steps,
                                                 std::uint64_t seed);

  struct LivenessReport {
    int walks{0};
    int completed{0};  // walks where every host got every broadcast
    double mean_steps_to_complete{0.0};
    std::vector<Violation> violations;
    [[nodiscard]] bool clean() const { return violations.empty(); }
  };

  // Liveness smoke test: random walks under a *fair* scheduler — protocol
  // steps and deliveries are weighted far above adversarial drops and
  // duplications, approximating the paper's "given sufficient time,
  // communication opportunities recur" assumption. Counts how many walks
  // reach full dissemination (every host holds every broadcast) within
  // `max_steps`. Safety invariants are still checked throughout.
  [[nodiscard]] LivenessReport explore_liveness(int walks, int max_steps,
                                                std::uint64_t seed);

  [[nodiscard]] SystemState initial_state() const;

  // All transitions enabled in `state`.
  [[nodiscard]] std::vector<Transition> successors(
      const SystemState& state) const;

  // Checks the invariants; appends to `violations`.
  void check_invariants(const SystemState& state,
                        const std::vector<std::string>& trace,
                        std::vector<Violation>& violations) const;

 private:
  void enqueue_sends(SystemState& state,
                     std::vector<ModelMessage> messages) const;

  // The walk loop both random explorers share: one walk from the initial
  // state, at most `max_moves` moves, invariants checked after each. A
  // fair walk picks by the fair weights and ends once every host holds
  // every broadcast (`complete`); any other walk picks uniformly.
  struct WalkEnd {
    int moves{0};
    bool complete{false};
  };
  WalkEnd walk(util::Rng& rng, int max_moves, bool fair,
               std::vector<Violation>& violations) const;

  ModelConfig config_;
};

}  // namespace rbcast::model
