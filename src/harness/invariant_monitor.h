// Online invariant monitor — the model checker's safety net attached to
// full-scale simulation runs.
//
// The bounded model checker (src/model/checker.*) proves invariants I1-I5
// on tiny instances; this monitor re-checks the same shared predicates
// (src/model/invariants.*) continuously against real scenarios, plus three
// liveness conditions the checker's bounded horizon cannot reach:
//
//   C1  no parent-graph cycle persists once faults have quiesced,
//   C2  no host stays orphaned (parent = NIL) longer than a bound,
//   C3  within a configurable deadline, the parent graph is a
//       source-rooted cluster tree and every host holds every message.
//
// C2 and C3 are clocked from the first broadcast at or after quiescence,
// not from quiescence itself: the paper's attachment rules re-form the
// tree only when new information flows (case I.3 needs a strictly greater
// INFO set, so an orphan that is already caught up has no attach candidate
// in a quiescent stream). Without a post-quiescence broadcast they are
// never judged; run_chaos schedules a probe broadcast to guarantee one.
//
// Read-only contract: the monitor observes (ProtocolObserver, NetObserver
// and an app-delivery hook) and schedules only its own sweep timer; it
// never sends, never mutates hosts and never consumes a host RNG stream,
// so enabling it leaves the protocol event digest of a seeded run
// byte-identical (asserted by tests/invariant_monitor_test.cpp).
//
// Liveness checks are armed by set_faults_quiet_at(); until then only the
// safety invariants run, so the monitor is safe to enable in scenarios
// with open-ended fault schedules.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "core/protocol_observer.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/ids.h"

namespace rbcast::harness {

// Liveness condition identifiers; the safety identifiers are
// model::invariants::kExactlyOnce .. kSaneParent ("I1".."I5").
inline constexpr const char* kCycleAfterQuiet = "C1";
inline constexpr const char* kOrphanBound = "C2";
inline constexpr const char* kConvergeDeadline = "C3";

// Cadence of the safety/liveness sweep.
inline constexpr sim::Duration kSweepPeriod = sim::milliseconds(500);
// Distinct violations a monitor reports (deduplicated per invariant and
// subject); later ones are only counted (dropped_violations()).
inline constexpr std::size_t kMaxViolations = 64;

struct MonitorOptions {
  // C1/C2 bound: how long a parent cycle may persist (after quiescence),
  // or a host may stay orphaned (after the post-quiescence liveness
  // anchor), before it counts as a violation.
  sim::Duration orphan_limit{sim::seconds(60)};
  // C3 deadline: time after the liveness anchor by which the parent graph
  // must be a source-rooted cluster tree with every message delivered.
  sim::Duration converge_deadline{sim::seconds(120)};
};

struct InvariantViolation {
  std::string invariant;  // "I1".."I5" / "C1".."C3"
  std::string description;
  sim::TimePoint at{0};
  // Failure class the violation is attributed to: "byzantine" when a
  // Byzantine adversary was scheduled and the invariant is one bad data
  // can break (I2/I3); empty otherwise. The ddmin shrinker keys its
  // first-violation signature on (invariant, category) so a Byzantine
  // repro cannot silently degrade into a crash/partition repro.
  std::string category;
};

// Blast radius of the scheduled Byzantine hosts: who delivered corrupt or
// invented data, and how far (in parent-graph hops) it traveled from the
// nearest adversary. The Bonomi/Farina/Tixeuil containment criterion:
// with authentication on, bad data must die on the adversary's direct
// edges — no host beyond hop 1 may deliver it, and in this protocol even
// the direct neighbors reject it, so corrupted_hosts stays empty.
struct ContainmentReport {
  std::set<HostId> byzantine;        // scheduled adversaries
  std::set<HostId> corrupted_hosts;  // delivered corrupt/invented data
  int max_hops{0};                   // farthest corrupted host (hops)
  std::map<int, int> hosts_by_hops;  // distance -> corrupted host count
  std::vector<std::string> invariants;  // distinct invariant ids broken
  [[nodiscard]] bool contained() const {
    return corrupted_hosts.empty() || max_hops <= 1;
  }
};

// One line per aspect, human-readable ("byzantine={3} corrupted=...").
[[nodiscard]] std::string to_string(const ContainmentReport& r);

class InvariantMonitor final : public core::ProtocolObserver,
                               public net::NetObserver {
 public:
  // `hosts` has one entry per host, indexed by HostId value; all borrowed
  // references must outlive the monitor.
  InvariantMonitor(sim::Simulator& simulator,
                   std::vector<const core::BroadcastHost*> hosts,
                   const net::Network& network, HostId source,
                   MonitorOptions options = {});

  // Arms the periodic sweep. Call alongside Experiment::start().
  void start();

  // Declares that no further faults will be injected after `t`, arming the
  // liveness conditions C1-C3 (measured from `t`). Calling again re-arms
  // them from the new quiescence point.
  void set_faults_quiet_at(sim::TimePoint t);

  // Declares which hosts run under a Byzantine schedule. Arms blast-radius
  // tracking (containment()) and the "byzantine" violation category; call
  // before the run starts.
  void set_byzantine_hosts(std::set<HostId> hosts);

  // Source-side hook: message `seq` was generated with `body`. Bodies are
  // the I2/I3 ground truth; every broadcast must be reported here.
  void on_source_broadcast(util::Seq seq, std::string_view body);

  // Application-side hook: `host` handed `body` to the application as
  // message `seq` (first receipt).
  void on_app_delivery(HostId host, util::Seq seq, std::string_view body);

  // Runs one safety+liveness sweep immediately.
  void sweep_now();

  // Final sweep + stops the periodic task. Call at end of run.
  void finish();

  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool ok() const { return violations_.empty(); }
  // Distinct violations suppressed once kMaxViolations was reached.
  [[nodiscard]] std::size_t dropped_violations() const { return dropped_; }
  [[nodiscard]] std::uint64_t sweeps_run() const { return sweeps_; }

  // Blast-radius summary over the run so far (meaningful once
  // set_byzantine_hosts was called; empty report otherwise).
  [[nodiscard]] ContainmentReport containment() const;

  // --- ProtocolObserver ----------------------------------------------------
  void on_attached(HostId host, HostId parent) override;
  void on_detached(HostId host, HostId old_parent, bool timeout) override;
  void on_delivered(HostId host, util::Seq seq) override;

  // --- NetObserver ---------------------------------------------------------
  // Wire-level I3: a traced copy of a source message whose sequence number
  // the source never generated.
  void on_deliver(const net::Delivery& d) override;

 private:
  void record(const char* invariant, const std::string& dedup_key,
              const std::string& description);
  void check_safety();
  void check_liveness();
  // A host on a parent cycle, if any exists right now.
  [[nodiscard]] std::optional<HostId> find_parent_cycle() const;
  // Notes that `host` delivered corrupt/invented data (blast radius).
  void note_corruption(HostId host);
  // Parent-graph distance (undirected edges, current pointers) from `host`
  // to the nearest Byzantine host; -1 when unreachable.
  [[nodiscard]] int hops_to_byzantine(HostId host) const;

  sim::Simulator& simulator_;
  std::vector<const core::BroadcastHost*> hosts_;
  const net::Network& network_;
  HostId source_;
  MonitorOptions options_;

  // Ground truth and per-host observation state, indexed by HostId value.
  std::vector<std::string> source_bodies_;
  std::vector<std::map<util::Seq, int>> delivery_counts_;
  std::vector<std::map<util::Seq, std::string>> delivered_bodies_;
  std::vector<std::set<util::Seq>> proto_delivered_;
  std::vector<std::optional<sim::TimePoint>> orphan_since_;

  // Blast-radius tracking (set_byzantine_hosts).
  std::set<HostId> byzantine_hosts_;
  std::set<HostId> corrupted_hosts_;
  std::map<int, int> corrupted_by_hops_;
  int max_corruption_hops_{0};

  std::optional<sim::TimePoint> quiet_at_;
  // The first broadcast at or after quiet_at_ — the C2/C3 clock origin.
  std::optional<sim::TimePoint> liveness_anchor_;
  // First sweep at which the currently-standing parent cycle was seen.
  std::optional<sim::TimePoint> cycle_since_;
  bool converge_checked_{false};

  std::vector<InvariantViolation> violations_;
  std::set<std::string> seen_;
  std::size_t dropped_{0};
  std::uint64_t sweeps_{0};

  // Declared last: captures `this`.
  sim::PeriodicTask sweep_task_;
};

}  // namespace rbcast::harness
