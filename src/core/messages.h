// Protocol messages.
//
// Two families share the wire:
//  * data messages — the broadcast stream itself, sequence-numbered by the
//    source; a copy sent to fill a hole in a peer's INFO set is flagged
//    gap_fill (the distinction matters for the acceptance rule and for
//    cost accounting, Section 4.4);
//  * control messages — INFO/parent exchange, the attach handshake and
//    detach notices (Sections 4.2-4.3).
//
// Wire sizes are modelled, not serialized: the simulator charges each
// message its realistic byte count so that cost and congestion results are
// meaningful.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <variant>

#include "core/auth.h"
#include "core/payload.h"
#include "util/ids.h"
#include "util/seq_set.h"

namespace rbcast::core {

using util::Seq;
using util::SeqSet;

// One broadcast data message (possibly redelivered as a gap filler).
struct DataMsg {
  Seq seq{0};
  // Refcounted immutable body: the leader's fan-out and every gap-fill
  // resend share one buffer instead of copying per child (see payload.h).
  Payload body;
  // True when sent to fill a gap rather than as first-time propagation
  // down the tree. Advisory (receivers decide by comparing seq to their
  // own maximum); used for accounting.
  bool gap_fill{false};
  // Section 6 piggybacking: "some control messages that are dispatched by
  // the same host at about the same time can be piggybacked in one
  // packet." When Config::piggyback_info is on, every data message also
  // carries the sender's INFO set and parent pointer, keeping neighbors'
  // MAPs fresh without separate control packets.
  std::optional<std::pair<SeqSet, HostId>> piggyback;
  // Per-source authentication (Config::auth_enabled, see auth.h): digest
  // of the body plus a tag binding (source, seq, digest). Relays forward
  // the source's tag verbatim — they cannot re-sign — so any mutation en
  // route is detected at the next honest hop. Absent in faithful mode.
  std::optional<AuthTag> auth;
};

// Periodic state exchange: "Hosts periodically update one another on the
// current values of their INFO sets" and "cluster neighbors periodically
// inform i of the identities of their new parents" (Section 4.2). Both
// ride in one control message (the paper's Section 6 piggybacking remark).
struct InfoMsg {
  SeqSet info;
  HostId parent;  // sender's current parent; kNoHost when none
};

// "a message is sent to it requesting inclusion in its CHILDREN set"
// (Section 4.2). Carries the requester's INFO set so the new parent can
// back-fill what the child is missing (Section 4.4).
struct AttachRequest {
  SeqSet info;
};

// Acknowledgment of AttachRequest. Carries the parent's INFO and its own
// parent pointer so the child's MAP and p[] start out fresh.
struct AttachAccept {
  SeqSet info;
  HostId parent;
};

// "The old parent, if any, is also notified of the change" (Section 4.2).
struct DetachNotice {};

// One protocol message: a variant of the five kinds above. It is a struct
// (not an alias) only so that it can carry class-scoped allocation
// functions. Transports box each message in a std::any, whose libstdc++
// implementation stores a type this large on the heap with a plain
// `new ProtocolMessage(...)` / `delete`; those calls find the operators
// below, which recycle blocks through a per-thread free list
// (messages.cpp), so a steady-state send, hop copy or duplicate allocates
// nothing. std::visit, std::get_if, std::holds_alternative and
// std::any_cast<ProtocolMessage> work on it unchanged.
struct ProtocolMessage final
    : std::variant<DataMsg, InfoMsg, AttachRequest, AttachAccept,
                   DetachNotice> {
  using variant::variant;

  // Blocks of sizeof(ProtocolMessage) come from the calling thread's free
  // list, which grows through ::operator new and keeps at most
  // kPooledBoxes blocks (the main thread's starts full); any other size
  // goes straight to ::operator new.
  static void* operator new(std::size_t size);
  static void operator delete(void* block, std::size_t size) noexcept;
};

// Most freed boxes one thread keeps for reuse (96 B each on x86-64): about
// five times the most boxes perfbench's wan64 and stream16 workloads keep
// in flight at once (212 and 94).
inline constexpr std::size_t kPooledBoxes = 1024;

// Modelled wire size (header + payload) in bytes.
[[nodiscard]] std::size_t wire_size(const ProtocolMessage& m);

// --- wire codec -----------------------------------------------------------
//
// Real serialization for the UDP transport (the simulator hands the
// variant through in-process and only charges wire_size()). Layout: a
// 1-byte variant tag, then little-endian fixed-width fields; SeqSets use
// util::SeqSet's own codec, length-prefixed. See PROTOCOL.md "Wire
// format" for the byte layout.
//
// decode_message() is total: truncated input, bad tags, oversized length
// prefixes and invalid SeqSets all return nullopt — datagrams come from
// untrusted peers, so nothing here may assert or index out of bounds.

// Ceiling on one data message body; a hostile length prefix cannot force
// a larger allocation.
inline constexpr std::size_t kMaxBodyBytes = 1 << 20;

[[nodiscard]] std::string encode_message(const ProtocolMessage& m);
[[nodiscard]] std::optional<ProtocolMessage> decode_message(const char* data,
                                                            std::size_t size);

// Metrics label: "data", "gapfill", "info", "attach_req", "attach_ack",
// "detach".
[[nodiscard]] const char* kind_of(const ProtocolMessage& m);

// True for the data family (the rest is control traffic).
[[nodiscard]] bool is_data(const ProtocolMessage& m);

}  // namespace rbcast::core
