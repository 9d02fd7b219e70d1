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

EventLog::EventLog(util::Scheduler& clock) : clock_(clock) {
  // Room for the chunk pointers of 256 Ki events and for 16 detail texts,
  // so until then a push allocates only at a chunk boundary or for a new
  // detail text.
  chunks_.reserve(64);
  details_.reserve(16);
  details_.emplace_back();
}

std::string EventLog::describe(const Event& e) const {
  std::ostringstream os;
  os << '[' << sim::to_seconds(e.at) << "s] " << e.host << ' '
     << to_string(e.type);
  if (e.peer.valid()) os << ' ' << e.peer;
  if (e.seq != 0) os << " #" << e.seq;
  if (e.detail != 0) os << " (" << detail(e) << ')';
  return os.str();
}

std::uint32_t EventLog::intern(const std::string& text) {
  if (text.empty()) return 0;
  for (std::size_t i = 1; i < details_.size(); ++i) {
    if (details_[i] == text) return static_cast<std::uint32_t>(i);
  }
  details_.push_back(text);
  return static_cast<std::uint32_t>(details_.size() - 1);
}

void EventLog::push(EventType type, HostId host, HostId peer, util::Seq seq,
                    std::uint32_t detail) {
  const std::size_t slot = size_ % kChunkEvents;
  if (slot == 0 && size_ / kChunkEvents == chunks_.size()) {
    chunks_.push_back(std::make_unique<Event[]>(kChunkEvents));
  }
  Event& e = chunks_[size_ / kChunkEvents][slot];
  e = Event{clock_.now(), seq, host, peer, type, detail};
  ++size_;
  if (sink_ != nullptr) {
    TraceRecord r;
    r.at = e.at;
    r.category = "protocol";
    r.name = to_string(type);
    r.host = host;
    if (e.peer.valid()) r.field("peer", std::int64_t{e.peer.value});
    if (e.seq != 0) r.field("seq", std::uint64_t{e.seq});
    if (e.detail != 0) r.field("detail", details_[e.detail]);
    sink_->record(r);
  }
}

void EventLog::on_attach_requested(HostId host, HostId candidate,
                                   const std::string& rule) {
  push(EventType::kAttachRequested, host, candidate, 0, intern(rule));
}

void EventLog::on_attached(HostId host, HostId parent) {
  push(EventType::kAttached, host, parent, 0);
}

void EventLog::on_detached(HostId host, HostId old_parent, bool timeout) {
  push(timeout ? EventType::kParentTimeout : EventType::kDetached, host,
       old_parent, 0);
}

void EventLog::on_cycle_broken(HostId host) {
  push(EventType::kCycleBroken, host, kNoHost, 0);
}

void EventLog::on_attach_timeout(HostId host, HostId candidate) {
  push(EventType::kAttachTimeout, host, candidate, 0);
}

void EventLog::on_new_max_rejected(HostId host, HostId from, util::Seq seq) {
  push(EventType::kNewMaxRejected, host, from, seq);
}

void EventLog::on_delivered(HostId host, util::Seq seq) {
  push(EventType::kDelivered, host, kNoHost, seq);
}

void EventLog::on_gapfill_offered(HostId host, HostId to, util::Seq seq) {
  push(EventType::kGapFillOffered, host, to, seq);
}

void EventLog::on_gapfill_accepted(HostId host, HostId from, util::Seq seq) {
  push(EventType::kGapFillAccepted, host, from, seq);
}

void EventLog::on_gapfill_relayed(HostId host, HostId to, util::Seq seq) {
  push(EventType::kGapFillRelayed, host, to, seq);
}

std::size_t EventLog::count(EventType type) const {
  std::size_t n = 0;
  for (const Event& e : events()) {
    if (e.type == type) ++n;
  }
  return n;
}

std::vector<Event> EventLog::events_of(HostId host) const {
  std::vector<Event> out;
  for (const Event& e : events()) {
    if (e.host == host) out.push_back(e);
  }
  return out;
}

std::vector<Event> EventLog::between(sim::TimePoint from,
                                     sim::TimePoint to) const {
  std::vector<Event> out;
  for (const Event& e : events()) {
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
  for (const Event& e : events()) {
    mix(h, e.at);
    mix(h, static_cast<std::int32_t>(e.type));
    mix(h, e.host.value);
    mix(h, e.peer.value);
    mix(h, e.seq);
    const std::string& text = detail(e);
    h = util::fnv1a(h, text.data(), text.size());
    mix(h, '\n');
  }
  return h;
}

void EventLog::dump(std::ostream& os, bool include_deliveries) const {
  std::size_t deliveries = 0;
  for (const Event& e : events()) {
    if (e.type == EventType::kDelivered && !include_deliveries) {
      ++deliveries;
      continue;
    }
    os << describe(e) << '\n';
  }
  if (deliveries > 0) {
    os << "(+ " << deliveries << " delivery events)\n";
  }
}

}  // namespace rbcast::trace
