#include "trace/event_log.h"

#include <ostream>
#include <sstream>
#include <type_traits>

#include "util/bytes.h"

namespace rbcast::trace {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kAttachRequested:
      return "attach-requested";
    case EventType::kAttached:
      return "attached";
    case EventType::kDetached:
      return "detached";
    case EventType::kParentTimeout:
      return "parent-timeout";
    case EventType::kCycleBroken:
      return "cycle-broken";
    case EventType::kAttachTimeout:
      return "attach-timeout";
    case EventType::kNewMaxRejected:
      return "new-max-rejected";
    case EventType::kDelivered:
      return "delivered";
    case EventType::kGapFillOffered:
      return "gapfill-offered";
    case EventType::kGapFillAccepted:
      return "gapfill-accepted";
    case EventType::kGapFillRelayed:
      return "gapfill-relayed";
  }
  return "?";
}

std::string Event::describe() const {
  std::ostringstream os;
  os << '[' << sim::to_seconds(at) << "s] " << host << ' '
     << to_string(type);
  if (peer.valid()) os << ' ' << peer;
  if (seq != 0) os << " #" << seq;
  if (!detail.empty()) os << " (" << detail << ')';
  return os.str();
}

void EventLog::push(EventType type, HostId host, HostId peer, util::Seq seq,
                    std::string detail) {
  events_.push_back(Event{clock_.now(), type, host, peer, seq,
                          std::move(detail)});
  if (sink_ != nullptr) {
    const Event& e = events_.back();
    TraceRecord r;
    r.at = e.at;
    r.category = "protocol";
    r.name = to_string(type);
    r.host = host;
    if (e.peer.valid()) r.field("peer", std::int64_t{e.peer.value});
    if (e.seq != 0) r.field("seq", std::uint64_t{e.seq});
    if (!e.detail.empty()) r.field("detail", e.detail);
    sink_->record(r);
  }
}

void EventLog::on_attach_requested(HostId host, HostId candidate,
                                   const std::string& rule) {
  push(EventType::kAttachRequested, host, candidate, 0, rule);
}

void EventLog::on_attached(HostId host, HostId parent) {
  push(EventType::kAttached, host, parent, 0, {});
}

void EventLog::on_detached(HostId host, HostId old_parent, bool timeout) {
  push(timeout ? EventType::kParentTimeout : EventType::kDetached, host,
       old_parent, 0, {});
}

void EventLog::on_cycle_broken(HostId host) {
  push(EventType::kCycleBroken, host, kNoHost, 0, {});
}

void EventLog::on_attach_timeout(HostId host, HostId candidate) {
  push(EventType::kAttachTimeout, host, candidate, 0, {});
}

void EventLog::on_new_max_rejected(HostId host, HostId from, util::Seq seq) {
  push(EventType::kNewMaxRejected, host, from, seq, {});
}

void EventLog::on_delivered(HostId host, util::Seq seq) {
  push(EventType::kDelivered, host, kNoHost, seq, {});
}

void EventLog::on_gapfill_offered(HostId host, HostId to, util::Seq seq) {
  push(EventType::kGapFillOffered, host, to, seq, {});
}

void EventLog::on_gapfill_accepted(HostId host, HostId from, util::Seq seq) {
  push(EventType::kGapFillAccepted, host, from, seq, {});
}

void EventLog::on_gapfill_relayed(HostId host, HostId to, util::Seq seq) {
  push(EventType::kGapFillRelayed, host, to, seq, {});
}

std::size_t EventLog::count(EventType type) const {
  std::size_t n = 0;
  for (const Event& e : events_) {
    if (e.type == type) ++n;
  }
  return n;
}

std::vector<Event> EventLog::events_of(HostId host) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.host == host) out.push_back(e);
  }
  return out;
}

std::vector<Event> EventLog::between(sim::TimePoint from,
                                     sim::TimePoint to) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.at >= from && e.at < to) out.push_back(e);
  }
  return out;
}

namespace {

// digest() starts from this seed, not from FNV-1a's offset basis
// 14695981039346656037 (util::kFnv1aOffset): it is that number with its
// last digit dropped. Every digest pinned in
// tests/data/determinism_digests.txt starts here, so the value stays.
constexpr std::uint64_t kDigestSeed = 1469598103934665603ULL;

template <typename T>
void mix(std::uint64_t& h, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  h = util::fnv1a(h, &value, sizeof(value));
}

}  // namespace

std::uint64_t EventLog::digest() const {
  std::uint64_t h = kDigestSeed;
  for (const Event& e : events_) {
    mix(h, e.at);
    mix(h, static_cast<std::int32_t>(e.type));
    mix(h, e.host.value);
    mix(h, e.peer.value);
    mix(h, e.seq);
    h = util::fnv1a(h, e.detail.data(), e.detail.size());
    mix(h, '\n');
  }
  return h;
}

void EventLog::dump(std::ostream& os, bool include_deliveries) const {
  std::size_t deliveries = 0;
  for (const Event& e : events_) {
    if (e.type == EventType::kDelivered && !include_deliveries) {
      ++deliveries;
      continue;
    }
    os << e.describe() << '\n';
  }
  if (deliveries > 0) {
    os << "(+ " << deliveries << " delivery events)\n";
  }
}

}  // namespace rbcast::trace
