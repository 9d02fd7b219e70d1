// Structured protocol event log.
//
// Records every protocol-level event (attachments, detachments, cycle
// breaks, timeouts, rejections, deliveries) with its virtual timestamp.
// Tests assert on event sequences; examples dump human-readable timelines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/protocol_observer.h"
#include "sim/time.h"
#include "trace/trace_sink.h"
#include "util/scheduler.h"

namespace rbcast::trace {

enum class EventType {
  kAttachRequested,
  kAttached,
  kDetached,
  kParentTimeout,  // a kDetached caused by liveness expiry
  kCycleBroken,
  kAttachTimeout,
  kNewMaxRejected,
  kDelivered,
  // Gap filling (Section 4.4) — makes the PR-3 suppression logic
  // observable: offers are planner-driven redeliveries, accepts are gaps
  // actually closed, relays are accepted fills forwarded onward.
  kGapFillOffered,
  kGapFillAccepted,
  kGapFillRelayed,
};

[[nodiscard]] const char* to_string(EventType type);

struct Event {
  sim::TimePoint at{0};
  EventType type{EventType::kDelivered};
  HostId host;          // the host the event happened on
  HostId peer{kNoHost}; // counterpart (parent/candidate/sender), if any
  util::Seq seq{0};     // for deliveries / rejections
  std::string detail;   // e.g. the attachment rule

  [[nodiscard]] std::string describe() const;
};

class EventLog final : public core::ProtocolObserver {
 public:
  // Takes any clock source — sim::Simulator for simulated runs,
  // util::RealTimeScheduler for rbcast_node — so both backends stamp
  // events identically.
  explicit EventLog(util::Scheduler& clock) : clock_(clock) {}

  // --- ProtocolObserver -----------------------------------------------
  void on_attach_requested(HostId host, HostId candidate,
                           const std::string& rule) override;
  void on_attached(HostId host, HostId parent) override;
  void on_detached(HostId host, HostId old_parent, bool timeout) override;
  void on_cycle_broken(HostId host) override;
  void on_attach_timeout(HostId host, HostId candidate) override;
  void on_new_max_rejected(HostId host, HostId from, util::Seq seq) override;
  void on_delivered(HostId host, util::Seq seq) override;
  void on_gapfill_offered(HostId host, HostId to, util::Seq seq) override;
  void on_gapfill_accepted(HostId host, HostId from, util::Seq seq) override;
  void on_gapfill_relayed(HostId host, HostId to, util::Seq seq) override;

  // --- queries -------------------------------------------------------------

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t count(EventType type) const;
  [[nodiscard]] std::vector<Event> events_of(HostId host) const;
  // Events in [from, to), any type.
  [[nodiscard]] std::vector<Event> between(sim::TimePoint from,
                                           sim::TimePoint to) const;

  // Human-readable timeline; deliveries are summarized unless
  // `include_deliveries`.
  void dump(std::ostream& os, bool include_deliveries = false) const;

  // Order-sensitive FNV-1a hash (util::fnv1a) over every recorded event
  // (timestamp, type, host, peer, seq, detail), started from the pinned
  // kDigestSeed rather than FNV-1a's offset basis (see event_log.cpp).
  // Two runs of the same seed must produce identical digests — the
  // runtime half of the determinism gate (rbcast_check
  // --determinism-check).
  [[nodiscard]] std::uint64_t digest() const;

  void clear() { events_.clear(); }

  // Mirrors every recorded event to `sink` as a "protocol" TraceRecord
  // (nullptr to stop). Purely additive: the in-memory log, queries and
  // digest() are unchanged by mirroring.
  void set_sink(TraceSink* sink) { sink_ = sink; }

 private:
  void push(EventType type, HostId host, HostId peer, util::Seq seq,
            std::string detail);

  util::Scheduler& clock_;
  std::vector<Event> events_;
  TraceSink* sink_{nullptr};
};

}  // namespace rbcast::trace
