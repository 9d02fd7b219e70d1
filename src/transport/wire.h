// Datagram frame codec — the transport-level envelope around a payload.
//
// A UDP datagram carries either one version-1 frame or one version-2
// batch container holding several version-1 frames back to back (see
// PROTOCOL.md "Wire format").
//
// Single frame (version 1):
//
//   offset  size  field
//        0     3  magic "RBC"
//        3     1  version (kSingleFrameVersion; receivers drop others)
//        4     4  from host id, int32 LE
//        8     4  to host id, int32 LE
//       12     1  flags (bit 0: traversed an expensive link)
//       13     1  kind length K (metrics label, <= kMaxKind)
//       14     K  kind bytes
//     14+K     8  trace id, uint64 LE
//     22+K     4  payload length P, uint32 LE (<= kMaxPayload)
//     26+K     P  payload bytes (opaque here; see transport::PayloadCodec)
//
// Batch container (version 2, added by the coalescing data plane):
//
//   offset  size  field
//        0     3  magic "RBC"
//        3     1  version (kWireVersion == 2)
//        4     2  frame count N, uint16 LE (>= 1)
//        6     -  N x { frame length L, uint32 LE; L bytes of a complete
//                       version-1 frame, magic and all }
//
// The explicit lengths make both layouts self-delimiting even though UDP
// already frames datagrams: a truncated or padded datagram is detected
// instead of silently mis-parsed, and the same bytes could later travel a
// stream transport unchanged. The decoders are total — any malformed
// input returns nullopt, never UB — because datagrams arrive from
// untrusted peers. A malformed container delivers nothing: no partial
// batches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/message.h"
#include "util/ids.h"

namespace rbcast::transport {

// Current protocol version: the batch container. Single frames keep
// emitting (and accepting only) version 1, so pre-batching peers and
// recorded traces stay byte-compatible.
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::uint8_t kSingleFrameVersion = 1;
inline constexpr std::size_t kMaxKind = 32;
// Generous ceiling for one protocol message; real datagrams must also fit
// the socket buffer, this bound just stops a hostile length prefix from
// forcing a huge allocation.
inline constexpr std::size_t kMaxPayload = 1 << 20;
// The most one UDP datagram over IPv4 can carry: 65,535 bytes less the
// 20-byte IP and 8-byte UDP headers. A frame or batch container larger
// than this cannot be sent.
inline constexpr std::size_t kMaxDatagramBytes = 65507;
// A version-1 frame's fixed fields (everything but the kind and payload
// bytes): what encode_frame adds to K + P.
inline constexpr std::size_t kFrameHeaderBytes = 26;
// Container fixed header (magic + version + count) and per-frame length
// prefix — what a batch costs on the wire beyond its frames.
inline constexpr std::size_t kBatchHeaderBytes = 6;
inline constexpr std::size_t kBatchPerFrameBytes = 4;
inline constexpr std::size_t kMaxBatchFrames = 0xffff;

struct Frame {
  HostId from{kNoHost};
  HostId to{kNoHost};
  bool expensive{false};
  std::string kind;
  net::TraceId trace_id{0};
  std::string payload;
};

[[nodiscard]] std::string encode_frame(const Frame& frame);

// nullopt on malformed input: short buffer, bad magic, unknown version,
// oversized kind/payload length, or trailing bytes past the payload.
[[nodiscard]] std::optional<Frame> decode_frame(const char* data,
                                                std::size_t size);

// Wraps already-encoded version-1 frames in a version-2 container.
// Asserts 1 <= count <= kMaxBatchFrames.
[[nodiscard]] std::string encode_batch_container(
    const std::vector<std::string>& encoded_frames);

// Encodes `frames` as one datagram: a bare version-1 frame when there is
// exactly one, a version-2 container otherwise. nullopt when `frames` is
// empty (an empty flush is a no-op, not a datagram) or when the encoded
// datagram would exceed `max_bytes`.
[[nodiscard]] std::optional<std::string> encode_batch(
    const std::vector<Frame>& frames, std::size_t max_bytes);

// The version-aware reader: accepts a bare version-1 frame (vector of
// one) or a version-2 batch container. nullopt on any malformed input —
// bad magic, unknown version, zero frame count, a contained frame that
// fails decode_frame(), truncation, or trailing bytes. Never delivers a
// partial batch.
[[nodiscard]] std::optional<std::vector<Frame>> decode_datagram(
    const char* data, std::size_t size);

}  // namespace rbcast::transport
