#include "transport/wire.h"

#include <cstring>

#include "util/assert.h"
#include "util/bytes.h"

namespace rbcast::transport {

namespace {

constexpr char kMagic[3] = {'R', 'B', 'C'};

using util::ByteReader;
using util::put_u16;
using util::put_u32;
using util::put_u64;
using util::put_u8;

}  // namespace

std::string encode_frame(const Frame& frame) {
  RBCAST_ASSERT_MSG(frame.kind.size() <= kMaxKind, "frame kind too long");
  RBCAST_ASSERT_MSG(frame.payload.size() <= kMaxPayload,
                    "frame payload too large");
  std::string out;
  out.reserve(kFrameHeaderBytes + frame.kind.size() + frame.payload.size());
  out.append(kMagic, sizeof(kMagic));
  put_u8(out, kSingleFrameVersion);
  put_u32(out, static_cast<std::uint32_t>(frame.from.value));
  put_u32(out, static_cast<std::uint32_t>(frame.to.value));
  put_u8(out, frame.expensive ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(frame.kind.size()));
  out.append(frame.kind);
  put_u64(out, frame.trace_id);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  return out;
}

std::optional<Frame> decode_frame(const char* data, std::size_t size) {
  if (size < 4 || std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  if (static_cast<std::uint8_t>(data[3]) != kSingleFrameVersion) {
    return std::nullopt;
  }
  ByteReader r(std::string_view(data + 4, size - 4));

  Frame f;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint8_t flags = 0;
  std::uint8_t kind_len = 0;
  if (!r.take_u32(from) || !r.take_u32(to) || !r.take_u8(flags) ||
      !r.take_u8(kind_len)) {
    return std::nullopt;
  }
  f.from = HostId{static_cast<HostId::value_type>(from)};
  f.to = HostId{static_cast<HostId::value_type>(to)};
  if ((flags & ~std::uint8_t{1}) != 0) return std::nullopt;
  f.expensive = (flags & 1) != 0;
  std::string_view kind;
  if (kind_len > kMaxKind || !r.take_view(kind, kind_len)) {
    return std::nullopt;
  }
  f.kind = kind;
  std::uint32_t payload_len = 0;
  if (!r.take_u64(f.trace_id) || !r.take_u32(payload_len)) {
    return std::nullopt;
  }
  std::string_view payload;
  if (payload_len > kMaxPayload || !r.take_view(payload, payload_len)) {
    return std::nullopt;
  }
  f.payload = payload;
  if (!r.done()) return std::nullopt;  // padded datagram
  return f;
}

std::string encode_batch_container(
    const std::vector<std::string>& encoded_frames) {
  RBCAST_ASSERT_MSG(!encoded_frames.empty(), "empty batch container");
  RBCAST_ASSERT_MSG(encoded_frames.size() <= kMaxBatchFrames,
                    "batch container too large");
  std::size_t total = kBatchHeaderBytes;
  for (const std::string& f : encoded_frames) {
    total += kBatchPerFrameBytes + f.size();
  }
  std::string out;
  out.reserve(total);
  out.append(kMagic, sizeof(kMagic));
  put_u8(out, kWireVersion);
  put_u16(out, static_cast<std::uint16_t>(encoded_frames.size()));
  for (const std::string& f : encoded_frames) {
    put_u32(out, static_cast<std::uint32_t>(f.size()));
    out.append(f);
  }
  return out;
}

std::optional<std::string> encode_batch(const std::vector<Frame>& frames,
                                        std::size_t max_bytes) {
  if (frames.empty() || frames.size() > kMaxBatchFrames) return std::nullopt;
  if (frames.size() == 1) {
    std::string out = encode_frame(frames.front());
    if (out.size() > max_bytes) return std::nullopt;
    return out;
  }
  std::vector<std::string> encoded;
  encoded.reserve(frames.size());
  std::size_t total = kBatchHeaderBytes;
  for (const Frame& f : frames) {
    encoded.push_back(encode_frame(f));
    total += kBatchPerFrameBytes + encoded.back().size();
  }
  if (total > max_bytes) return std::nullopt;
  return encode_batch_container(encoded);
}

std::optional<std::vector<Frame>> decode_datagram(const char* data,
                                                  std::size_t size) {
  if (size < 4 || std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  const auto version = static_cast<std::uint8_t>(data[3]);
  if (version == kSingleFrameVersion) {
    auto f = decode_frame(data, size);
    if (!f) return std::nullopt;
    std::vector<Frame> out;
    out.push_back(*std::move(f));
    return out;
  }
  if (version != kWireVersion) return std::nullopt;

  ByteReader r(std::string_view(data + 4, size - 4));
  std::uint16_t count = 0;
  if (!r.take_u16(count) || count == 0) return std::nullopt;
  std::vector<Frame> out;
  out.reserve(count);
  std::string_view bytes;
  for (std::uint16_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    if (!r.take_u32(len)) return std::nullopt;
    // A contained frame is at least an empty-kind, empty-payload frame
    // (kFrameHeaderBytes); the cap mirrors decode_frame's own limits.
    if (len > kBatchPerFrameBytes + kFrameHeaderBytes + kMaxKind +
                  kMaxPayload) {
      return std::nullopt;
    }
    if (!r.take_view(bytes, len)) return std::nullopt;
    auto f = decode_frame(bytes.data(), bytes.size());
    if (!f) return std::nullopt;
    out.push_back(*std::move(f));
  }
  if (!r.done()) return std::nullopt;  // padded container
  return out;
}

}  // namespace rbcast::transport
