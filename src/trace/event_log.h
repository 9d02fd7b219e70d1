// Structured protocol event log.
//
// Records every protocol-level event (attachments, detachments, cycle
// breaks, timeouts, rejections, deliveries) with its virtual timestamp.
// Tests assert on event sequences; examples dump human-readable timelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
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

// One recorded event: 32 bytes, trivially copyable, so the log is a flat
// array of records with no per-event heap block. Text details (today only
// the attachment rule) are interned in the owning log's table and read
// back through EventLog::detail().
struct Event {
  sim::TimePoint at{0};
  util::Seq seq{0};      // for deliveries / rejections
  HostId host;           // the host the event happened on
  HostId peer{kNoHost};  // counterpart (parent/candidate/sender), if any
  EventType type{EventType::kDelivered};
  std::uint32_t detail{0};  // EventLog detail-table index; 0 is "none"
};

class EventLog final : public core::ProtocolObserver {
 public:
  // Records live in chunks of this many (128 KiB each): the log grows by
  // one chunk at a time and never copies a recorded event.
  static constexpr std::size_t kChunkEvents = 4096;

  // Read-only random-access view of the recorded events, oldest first.
  class Events {
   public:
    class iterator {
     public:
      const Event& operator*() const { return (*log_)[index_]; }
      iterator& operator++() {
        ++index_;
        return *this;
      }
      bool operator==(const iterator&) const = default;

     private:
      friend class Events;
      iterator(const EventLog* log, std::size_t index)
          : log_(log), index_(index) {}
      const EventLog* log_{nullptr};
      std::size_t index_{0};
    };

    [[nodiscard]] std::size_t size() const { return log_->size_; }
    [[nodiscard]] bool empty() const { return log_->size_ == 0; }
    const Event& operator[](std::size_t index) const { return (*log_)[index]; }
    [[nodiscard]] iterator begin() const { return {log_, 0}; }
    [[nodiscard]] iterator end() const { return {log_, log_->size_}; }

   private:
    friend class EventLog;
    explicit Events(const EventLog* log) : log_(log) {}
    const EventLog* log_;
  };

  // Takes any clock source — sim::Simulator for simulated runs,
  // util::RealTimeScheduler for rbcast_node — so both backends stamp
  // events identically.
  explicit EventLog(util::Scheduler& clock);

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

  [[nodiscard]] Events events() const { return Events(this); }
  [[nodiscard]] std::size_t count(EventType type) const;
  [[nodiscard]] std::vector<Event> events_of(HostId host) const;
  // Events in [from, to), any type.
  [[nodiscard]] std::vector<Event> between(sim::TimePoint from,
                                           sim::TimePoint to) const;

  // The text detail of `e` (empty when it has none); `e` must come from
  // this log.
  [[nodiscard]] const std::string& detail(const Event& e) const {
    return details_[e.detail];
  }
  // One human-readable line for `e`, e.g. "[2s] h1 attach-requested h0 (I.1)".
  [[nodiscard]] std::string describe(const Event& e) const;

  // Human-readable timeline; deliveries are summarized unless
  // `include_deliveries`.
  void dump(std::ostream& os, bool include_deliveries = false) const;

  // Order-sensitive FNV-1a hash (util::fnv1a) over every recorded event
  // (timestamp, type, host, peer, seq, detail text), started from the
  // pinned kDigestSeed rather than FNV-1a's offset basis (see
  // event_log.cpp). Two runs of the same seed must produce identical
  // digests — the runtime half of the determinism gate (rbcast_check
  // --determinism-check).
  [[nodiscard]] std::uint64_t digest() const;

  // Forgets every event. The chunks and the detail table stay allocated,
  // so recording again allocates nothing until the old size is passed.
  void clear() { size_ = 0; }

  // Mirrors every recorded event to `sink` as a "protocol" TraceRecord
  // (nullptr to stop). Purely additive: the in-memory log, queries and
  // digest() are unchanged by mirroring.
  void set_sink(TraceSink* sink) { sink_ = sink; }

 private:
  const Event& operator[](std::size_t index) const {
    return chunks_[index / kChunkEvents][index % kChunkEvents];
  }
  void push(EventType type, HostId host, HostId peer, util::Seq seq,
            std::uint32_t detail = 0);
  // The detail-table index of `text`, added on first use.
  [[nodiscard]] std::uint32_t intern(const std::string& text);

  util::Scheduler& clock_;
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::size_t size_{0};
  // Interned detail texts; index 0 is the empty text.
  std::vector<std::string> details_;
  TraceSink* sink_{nullptr};
};

}  // namespace rbcast::trace
