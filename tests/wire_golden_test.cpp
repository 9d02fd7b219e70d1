// Golden bytes and hashes: exact encodings and hash values pinned as hex.
//
// The round-trip tests in wire_codec_test and transport_test cannot see an
// encoder and its decoder drift together; these can. Every expected string
// is a byte layout from PROTOCOL.md §12 (spaces separate fields and are
// ignored), and every hash is the value the determinism digests, the auth
// tags and the RNG streams depend on. A change here changes the wire or a
// replayed run: it needs a version bump or a deliberate re-pin, never a
// quiet edit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/auth.h"
#include "core/messages.h"
#include "sim/simulator.h"
#include "trace/event_log.h"
#include "transport/wire.h"
#include "util/rng.h"
#include "util/seq_set.h"

namespace rbcast {
namespace {

using core::ProtocolMessage;
using util::SeqSet;

// Lower-case hex of any byte container (std::string or a vector of bytes).
template <typename Bytes>
std::string hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    const auto v = static_cast<std::uint8_t>(b);
    out += kDigits[v >> 4];
    out += kDigits[v & 0xf];
  }
  return out;
}

// The expected layout with its field-separating spaces removed.
std::string unspaced(std::string_view spaced) {
  std::string out;
  for (const char c : spaced) {
    if (c != ' ') out += c;
  }
  return out;
}

// Expects `m` to encode to exactly `spaced` and those bytes to decode back
// to an encoding of the same bytes.
void expect_message(const ProtocolMessage& m, std::string_view spaced) {
  const std::string wire = core::encode_message(m);
  EXPECT_EQ(hex(wire), unspaced(spaced));
  const auto decoded = core::decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(hex(core::encode_message(*decoded)), unspaced(spaced));
}

// {5, 9, 10, 12} over a prune watermark of 4.
SeqSet pruned_set() {
  SeqSet s = SeqSet::contiguous(5);
  s.insert_range(9, 10);
  s.insert(12);
  s.prune_below(4);
  return s;
}

// --- SeqSet -----------------------------------------------------------------

TEST(WireGolden, EmptySeqSetIsAZeroWatermark) {
  EXPECT_EQ(hex(SeqSet{}.encode()), unspaced("0000000000000000"));
}

TEST(WireGolden, ContiguousSeqSetIsOneInterval) {
  EXPECT_EQ(hex(SeqSet::contiguous(3).encode()),
            unspaced("0000000000000000 0100000000000000 0300000000000000"));
}

TEST(WireGolden, PrunedSeqSetLeadsWithItsWatermark) {
  EXPECT_EQ(hex(pruned_set().encode()),
            unspaced("0400000000000000"
                     " 0500000000000000 0500000000000000"
                     " 0900000000000000 0a00000000000000"
                     " 0c00000000000000 0c00000000000000"));
}

// --- protocol bodies --------------------------------------------------------

TEST(WireGolden, DetachNotice) { expect_message(core::DetachNotice{}, "05"); }

TEST(WireGolden, Data) {
  core::DataMsg d;
  d.seq = 7;
  d.body = std::string("payload\0with\xff" "bytes", 18);
  expect_message(d,
                 "01 0700000000000000 00 12000000"
                 " 7061796c6f6164 00 77697468 ff 6279746573");
}

TEST(WireGolden, GapFillWithAuthTagAndPiggybackedInfo) {
  core::DataMsg d;
  d.seq = 3;
  d.body = "ab";
  d.gap_fill = true;
  d.auth = core::AuthTag{0x0102030405060708ULL, 0x1112131415161718ULL};
  d.piggyback = {SeqSet::contiguous(2), HostId{4}};
  expect_message(d,
                 "01 0300000000000000 07 02000000 6162"
                 " 0807060504030201 1817161514131211"
                 " 18000000 0000000000000000 0100000000000000 0200000000000000"
                 " 04000000");
}

TEST(WireGolden, InfoWithNilParent) {
  expect_message(core::InfoMsg{SeqSet::contiguous(3), kNoHost},
                 "02 18000000 0000000000000000 0100000000000000"
                 " 0300000000000000 ffffffff");
}

TEST(WireGolden, InfoWithPrunedSet) {
  expect_message(core::InfoMsg{pruned_set(), HostId{2}},
                 "02 38000000 0400000000000000"
                 " 0500000000000000 0500000000000000"
                 " 0900000000000000 0a00000000000000"
                 " 0c00000000000000 0c00000000000000 02000000");
}

TEST(WireGolden, AttachRequest) {
  expect_message(core::AttachRequest{SeqSet{}},
                 "03 08000000 0000000000000000");
}

TEST(WireGolden, AttachAccept) {
  expect_message(core::AttachAccept{SeqSet::contiguous(1), HostId{513}},
                 "04 18000000 0000000000000000 0100000000000000"
                 " 0100000000000000 01020000");
}

// --- transport frames -------------------------------------------------------

transport::Frame info_frame() {
  transport::Frame f;
  f.from = HostId{1};
  f.to = HostId{513};
  f.expensive = true;
  f.kind = "info";
  f.trace_id = 0xdeadbeefcafef00dULL;
  f.payload = std::string("\x01\x02\x00\x03", 4);
  return f;
}

constexpr std::string_view kInfoFrame =
    "524243 01 01000000 01020000 01 04 696e666f 0df0fecaefbeadde"
    " 04000000 01020003";

TEST(WireGolden, Frame) {
  const std::string wire = transport::encode_frame(info_frame());
  EXPECT_EQ(hex(wire), unspaced(kInfoFrame));
  const auto decoded = transport::decode_frame(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(hex(transport::encode_frame(*decoded)), unspaced(kInfoFrame));
}

TEST(WireGolden, FrameWithNoKindNoPayloadIs26Bytes) {
  transport::Frame f;
  f.from = HostId{0};
  f.to = HostId{2};
  EXPECT_EQ(hex(transport::encode_frame(f)),
            unspaced("524243 01 00000000 02000000 00 00 0000000000000000"
                     " 00000000"));
}

TEST(WireGolden, BatchOfOneIsABareVersion1Frame) {
  const auto wire = transport::encode_batch({info_frame()}, 1500);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(hex(*wire), unspaced(kInfoFrame));
}

TEST(WireGolden, ThreeFrameContainer) {
  std::vector<transport::Frame> frames(3);
  for (int i = 0; i < 3; ++i) {
    frames[i].from = HostId{i};
    frames[i].to = HostId{7};
    frames[i].kind = "d";
    frames[i].trace_id = static_cast<net::TraceId>(i + 1);
    frames[i].payload = std::string(1, static_cast<char>('x' + i));
  }
  const auto wire = transport::encode_batch(frames, 1500);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(hex(*wire),
            unspaced("524243 02 0300"
                     " 1c000000 524243 01 00000000 07000000 00 01 64"
                     " 0100000000000000 01000000 78"
                     " 1c000000 524243 01 01000000 07000000 00 01 64"
                     " 0200000000000000 01000000 79"
                     " 1c000000 524243 01 02000000 07000000 00 01 64"
                     " 0300000000000000 01000000 7a"));
  const auto decoded = transport::decode_datagram(wire->data(), wire->size());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[2].payload, "z");
}

// --- hashes -----------------------------------------------------------------

TEST(HashGolden, PayloadDigestIsFnv1a64) {
  EXPECT_EQ(core::payload_digest(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(core::payload_digest("hello"), 0xa430d84680aabd0bULL);
}

TEST(HashGolden, AuthMac) {
  EXPECT_EQ(core::auth_mac(5, HostId{2}, 7, 9), 0x46f7cdd43f785557ULL);
}

TEST(HashGolden, RngStreamFirstDraw) {
  util::Rng rng = util::RngFactory(1).stream("host.jitter", 3);
  EXPECT_EQ(rng.engine()(), 0x0579f3aa2d5be299ULL);
}

TEST(HashGolden, EventLogDigest) {
  sim::Simulator simulator;
  trace::EventLog log(simulator);
  // An empty log digests to its seed.
  EXPECT_EQ(log.digest(), 1469598103934665603ULL);
  simulator.run_until(sim::seconds(2));
  log.on_attach_requested(HostId{1}, HostId{0}, "I.1");
  log.on_attached(HostId{1}, HostId{0});
  log.on_delivered(HostId{1}, 7);
  EXPECT_EQ(log.digest(), 0x287ed04b07aa92dfULL);
}

}  // namespace
}  // namespace rbcast
