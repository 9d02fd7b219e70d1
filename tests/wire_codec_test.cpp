// Wire codec hardening: every ProtocolMessage variant must round-trip
// byte-exactly, and every malformed buffer — truncated, mis-tagged,
// hostile length prefixes, trailing garbage — must decode to nullopt,
// never crash. Datagrams arrive from untrusted peers; the codec is the
// trust boundary.
#include <gtest/gtest.h>

#include <any>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "core/messages.h"
#include "core/wire_codec.h"
#include "support/fake_network.h"
#include "transport/wire.h"

namespace rbcast::core {
namespace {

SeqSet set_of(std::initializer_list<util::Seq> seqs) {
  SeqSet s;
  for (util::Seq q : seqs) s.insert(q);
  return s;
}

// --- round trips: every variant --------------------------------------------

TEST(WireCodec, DataRoundTrip) {
  DataMsg d;
  d.seq = 42;
  d.body = std::string("payload\0with\xff" "bytes", 18);
  d.gap_fill = true;
  const std::string wire = encode_message(ProtocolMessage{d});
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<DataMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->seq, 42u);
  EXPECT_EQ(out->body, d.body);
  EXPECT_TRUE(out->gap_fill);
  EXPECT_FALSE(out->piggyback.has_value());
}

TEST(WireCodec, DataWithPiggybackRoundTrip) {
  DataMsg d;
  d.seq = 7;
  d.body = "x";
  d.piggyback = {set_of({1, 2, 3, 7}), HostId{9}};
  const std::string wire = encode_message(d);
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<DataMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  ASSERT_TRUE(out->piggyback.has_value());
  EXPECT_TRUE(out->piggyback->first.contains(3));
  EXPECT_EQ(out->piggyback->first.count(), 4u);
  EXPECT_EQ(out->piggyback->second, HostId{9});
}

TEST(WireCodec, InfoRoundTrip) {
  InfoMsg i;
  i.info = set_of({1, 2, 5, 6, 7, 100});
  i.parent = HostId{3};
  const std::string wire = encode_message(ProtocolMessage{i});
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<InfoMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->info.count(), 6u);
  EXPECT_TRUE(out->info.contains(100));
  EXPECT_EQ(out->parent, HostId{3});
}

TEST(WireCodec, InfoWithNoParentRoundTrip) {
  InfoMsg i;
  i.parent = kNoHost;
  const std::string wire = encode_message(ProtocolMessage{i});
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<InfoMsg>(*decoded).parent, kNoHost);
  EXPECT_EQ(std::get<InfoMsg>(*decoded).info.count(), 0u);
}

TEST(WireCodec, AttachRequestRoundTrip) {
  AttachRequest a;
  a.info = set_of({1, 9});
  const std::string wire = encode_message(ProtocolMessage{a});
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<AttachRequest>(*decoded).info.count(), 2u);
}

TEST(WireCodec, AttachAcceptRoundTrip) {
  AttachAccept a;
  a.info = set_of({1, 2, 3});
  a.parent = HostId{0};
  const std::string wire = encode_message(ProtocolMessage{a});
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<AttachAccept>(*decoded).parent, HostId{0});
}

TEST(WireCodec, DetachRoundTrip) {
  const std::string wire = encode_message(ProtocolMessage{DetachNotice{}});
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<DetachNotice>(*decoded));
}

// --- malformed input: body codec --------------------------------------------

TEST(WireCodec, EmptyAndBadTagRejected) {
  EXPECT_FALSE(decode_message("", 0).has_value());
  const char bad_tag[] = {0x00};
  EXPECT_FALSE(decode_message(bad_tag, 1).has_value());
  const char unknown_tag[] = {0x7f};
  EXPECT_FALSE(decode_message(unknown_tag, 1).has_value());
}

TEST(WireCodec, EveryTruncationRejected) {
  DataMsg d;
  d.seq = 3;
  d.body = "hello";
  d.piggyback = {set_of({1, 2, 3}), HostId{4}};
  const std::string wire = encode_message(ProtocolMessage{d});
  // Every strict prefix must fail cleanly — no assert, no read past end.
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(decode_message(wire.data(), n).has_value()) << "len " << n;
  }
}

TEST(WireCodec, TrailingBytesRejected) {
  std::string wire = encode_message(ProtocolMessage{DetachNotice{}});
  wire.push_back('\0');
  EXPECT_FALSE(decode_message(wire.data(), wire.size()).has_value());
}

TEST(WireCodec, HostileBodyLengthRejected) {
  DataMsg d;
  d.seq = 1;
  d.body = "ab";
  std::string wire = encode_message(ProtocolMessage{d});
  // Body length prefix lives after tag(1) + seq(8) + flags(1). Claim more
  // bytes than the buffer holds...
  wire[10] = '\xff';
  wire[11] = '\xff';
  wire[12] = '\x0f';
  wire[13] = '\x00';
  EXPECT_FALSE(decode_message(wire.data(), wire.size()).has_value());
  // ...and more than kMaxBodyBytes outright.
  wire[13] = '\x7f';
  EXPECT_FALSE(decode_message(wire.data(), wire.size()).has_value());
}

TEST(WireCodec, SeqBoundsEnforced) {
  DataMsg d;
  d.seq = 1;
  std::string wire = encode_message(ProtocolMessage{d});
  wire[1] = '\0';  // seq = 0: below the protocol's first sequence number
  EXPECT_FALSE(decode_message(wire.data(), wire.size()).has_value());
  for (int i = 1; i <= 8; ++i) wire[i] = '\xff';  // far above kMaxSeq
  EXPECT_FALSE(decode_message(wire.data(), wire.size()).has_value());
}

TEST(WireCodec, UnknownDataFlagsRejected) {
  DataMsg d;
  d.seq = 1;
  std::string wire = encode_message(ProtocolMessage{d});
  wire[9] = '\x40';  // undefined flag bit
  EXPECT_FALSE(decode_message(wire.data(), wire.size()).has_value());
}

TEST(WireCodec, HostileSeqSetRejected) {
  InfoMsg i;
  i.info = set_of({1});
  i.parent = kNoHost;
  std::string wire = encode_message(ProtocolMessage{i});
  // The SeqSet rides length-prefixed right after the tag; a hostile byte
  // count must be caught by the bound, not trusted.
  wire[1] = '\xff';
  wire[2] = '\xff';
  wire[3] = '\xff';
  wire[4] = '\x7f';
  EXPECT_FALSE(decode_message(wire.data(), wire.size()).has_value());
}

TEST(WireCodec, FuzzedMutationsNeverCrash) {
  DataMsg d;
  d.seq = 5;
  d.body = "fuzz-me";
  d.piggyback = {set_of({1, 2, 5}), HostId{2}};
  const std::string base = encode_message(ProtocolMessage{d});
  util::Rng rng(2026);
  for (int round = 0; round < 2000; ++round) {
    std::string wire = base;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
      wire[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    // Either outcome is fine; surviving without UB is the assertion (ASan
    // and UBSan builds make that check real).
    (void)decode_message(wire.data(), wire.size());
  }
}

// --- frame codec ------------------------------------------------------------

TEST(FrameCodec, RoundTrip) {
  transport::Frame f;
  f.from = HostId{3};
  f.to = HostId{11};
  f.expensive = true;
  f.kind = "data";
  f.trace_id = 0x1234567890abcdefULL;
  f.payload = std::string("\x01\x02\x00\x03", 4);
  const std::string wire = transport::encode_frame(f);
  const auto out = transport::decode_frame(wire.data(), wire.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->from, f.from);
  EXPECT_EQ(out->to, f.to);
  EXPECT_TRUE(out->expensive);
  EXPECT_EQ(out->kind, "data");
  EXPECT_EQ(out->trace_id, f.trace_id);
  EXPECT_EQ(out->payload, f.payload);
}

// UdpTransport charges a frame unpacked from a container exactly
// kFrameHeaderBytes + K + P, what it would have cost as a bare datagram.
TEST(FrameCodec, EncodedSizeIsHeaderPlusKindPlusPayload) {
  transport::Frame empty;
  empty.from = HostId{1};
  empty.to = HostId{2};
  EXPECT_EQ(transport::encode_frame(empty).size(),
            transport::kFrameHeaderBytes);

  transport::Frame f = empty;
  f.kind = "gapfill";
  f.payload = std::string(300, 'x');
  EXPECT_EQ(transport::encode_frame(f).size(),
            transport::kFrameHeaderBytes + f.kind.size() + f.payload.size());
}

TEST(FrameCodec, MalformedFramesRejected) {
  transport::Frame f;
  f.from = HostId{0};
  f.to = HostId{1};
  f.kind = "info";
  f.payload = "p";
  const std::string good = transport::encode_frame(f);

  std::string bad = good;
  bad[0] = 'X';  // magic
  EXPECT_FALSE(transport::decode_frame(bad.data(), bad.size()).has_value());

  bad = good;
  bad[3] = static_cast<char>(transport::kWireVersion + 1);
  EXPECT_FALSE(transport::decode_frame(bad.data(), bad.size()).has_value());

  bad = good;
  bad[12] = '\x02';  // undefined flag bit
  EXPECT_FALSE(transport::decode_frame(bad.data(), bad.size()).has_value());

  bad = good;
  bad[13] = '\x7f';  // kind length far past kMaxKind
  EXPECT_FALSE(transport::decode_frame(bad.data(), bad.size()).has_value());

  bad = good + "trailing";
  EXPECT_FALSE(transport::decode_frame(bad.data(), bad.size()).has_value());

  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(transport::decode_frame(good.data(), n).has_value())
        << "len " << n;
  }
}

// --- batch container (wire version 2) ---------------------------------------

transport::Frame make_frame(int from, int to, std::string kind,
                            std::string payload) {
  transport::Frame f;
  f.from = HostId{from};
  f.to = HostId{to};
  f.kind = std::move(kind);
  f.trace_id = static_cast<net::TraceId>(from) << 32 | to;
  f.payload = std::move(payload);
  return f;
}

TEST(BatchCodec, ContainerRoundTripsSeveralFrames) {
  const std::vector<transport::Frame> frames = {
      make_frame(0, 1, "data", "first"),
      make_frame(0, 1, "info", std::string("\x00\xff", 2)),
      make_frame(2, 1, "gapfill", ""),
  };
  const auto wire = transport::encode_batch(frames, 1200);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(static_cast<unsigned char>((*wire)[3]), transport::kWireVersion);

  const auto out = transport::decode_datagram(wire->data(), wire->size());
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 3u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ((*out)[i].from, frames[i].from) << "frame " << i;
    EXPECT_EQ((*out)[i].to, frames[i].to) << "frame " << i;
    EXPECT_EQ((*out)[i].kind, frames[i].kind) << "frame " << i;
    EXPECT_EQ((*out)[i].trace_id, frames[i].trace_id) << "frame " << i;
    EXPECT_EQ((*out)[i].payload, frames[i].payload) << "frame " << i;
  }
}

TEST(BatchCodec, BatchOfOneIsABareVersion1Frame) {
  const transport::Frame f = make_frame(1, 2, "data", "solo");
  const auto wire = transport::encode_batch({f}, 1200);
  ASSERT_TRUE(wire.has_value());
  // Not a container: byte-identical to the single-frame encoder, so a
  // batch-of-one is indistinguishable from the pre-batching wire format.
  EXPECT_EQ(*wire, transport::encode_frame(f));
  const auto out = transport::decode_datagram(wire->data(), wire->size());
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].payload, "solo");
}

TEST(BatchCodec, EmptyFlushIsNoDatagram) {
  EXPECT_FALSE(transport::encode_batch({}, 1200).has_value());
}

TEST(BatchCodec, OverBudgetBatchRejectedAtEncode) {
  const std::vector<transport::Frame> frames = {
      make_frame(0, 1, "data", std::string(600, 'a')),
      make_frame(0, 1, "data", std::string(600, 'b')),
  };
  EXPECT_FALSE(transport::encode_batch(frames, 1200).has_value());
  // The same frames fit a bigger budget — the bound is the budget, not
  // the frames.
  EXPECT_TRUE(transport::encode_batch(frames, 2000).has_value());
}

TEST(BatchCodec, Version1FrameDecodesUnderTheVersion2Reader) {
  // v1/v2 compatibility matrix, old-sender direction: a pre-batching peer's
  // bare frame must decode as a batch of one under the new reader.
  const transport::Frame f = make_frame(4, 5, "attach_req", "payload");
  const std::string wire = transport::encode_frame(f);
  EXPECT_EQ(static_cast<unsigned char>(wire[3]),
            transport::kSingleFrameVersion);
  const auto out = transport::decode_datagram(wire.data(), wire.size());
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].kind, "attach_req");
  EXPECT_EQ((*out)[0].payload, "payload");
}

TEST(BatchCodec, ContainerRejectedByTheVersion1Decoder) {
  // Old-receiver direction: a pre-batching peer drops a container whole
  // (version byte 2) rather than mis-parsing it — which is why batching
  // must only be enabled toward peers that understand it.
  const auto wire = transport::encode_batch(
      {make_frame(0, 1, "data", "a"), make_frame(0, 1, "data", "b")}, 1200);
  ASSERT_TRUE(wire.has_value());
  EXPECT_FALSE(transport::decode_frame(wire->data(), wire->size()).has_value());
}

TEST(BatchCodec, TruncatedContainerDeliversNothing) {
  const auto wire = transport::encode_batch(
      {make_frame(0, 1, "data", "first"), make_frame(0, 1, "data", "second"),
       make_frame(0, 1, "data", "third")},
      1200);
  ASSERT_TRUE(wire.has_value());
  // Every strict prefix fails whole — even prefixes that still hold one or
  // two complete contained frames. No partial delivery.
  for (std::size_t n = 0; n < wire->size(); ++n) {
    EXPECT_FALSE(transport::decode_datagram(wire->data(), n).has_value())
        << "len " << n;
  }
}

TEST(BatchCodec, TrailingBytesAfterContainerRejected) {
  auto wire = transport::encode_batch(
      {make_frame(0, 1, "data", "a"), make_frame(0, 1, "data", "b")}, 1200);
  ASSERT_TRUE(wire.has_value());
  wire->push_back('\0');
  EXPECT_FALSE(
      transport::decode_datagram(wire->data(), wire->size()).has_value());
}

TEST(BatchCodec, ZeroFrameCountRejected) {
  auto wire = transport::encode_batch(
      {make_frame(0, 1, "data", "a"), make_frame(0, 1, "data", "b")}, 1200);
  ASSERT_TRUE(wire.has_value());
  (*wire)[4] = '\0';  // count u16 LE -> 0
  (*wire)[5] = '\0';
  EXPECT_FALSE(
      transport::decode_datagram(wire->data(), wire->size()).has_value());
}

TEST(BatchCodec, HostileContainedFrameLengthRejected) {
  auto wire = transport::encode_batch(
      {make_frame(0, 1, "data", "a"), make_frame(0, 1, "data", "b")}, 1200);
  ASSERT_TRUE(wire.has_value());
  // First per-frame length prefix sits right after the 6-byte header;
  // claim far more bytes than the datagram holds.
  (*wire)[6] = '\xff';
  (*wire)[7] = '\xff';
  (*wire)[8] = '\xff';
  (*wire)[9] = '\x7f';
  EXPECT_FALSE(
      transport::decode_datagram(wire->data(), wire->size()).has_value());
}

TEST(BatchCodec, CorruptContainedFrameRejectsTheWholeBatch) {
  auto wire = transport::encode_batch(
      {make_frame(0, 1, "data", "a"), make_frame(0, 1, "data", "b")}, 1200);
  ASSERT_TRUE(wire.has_value());
  (*wire)[10] = 'X';  // second frame's magic starts after header+len; this
                      // hits the FIRST contained frame's magic byte
  EXPECT_FALSE(
      transport::decode_datagram(wire->data(), wire->size()).has_value());
}

TEST(BatchCodec, FuzzedBatchMutationsNeverCrash) {
  const auto base = transport::encode_batch(
      {make_frame(0, 1, "data", "fuzz-me"),
       make_frame(2, 1, "info", std::string(40, 'x')),
       make_frame(3, 1, "gapfill", "")},
      1200);
  ASSERT_TRUE(base.has_value());
  util::Rng rng(2026);
  for (int round = 0; round < 2000; ++round) {
    std::string wire = *base;
    // Bias half the rounds at the 10-byte header region (version, count,
    // first length prefix) where the interesting parsing decisions live.
    const std::size_t limit = (round % 2 == 0) ? 10 : wire.size();
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(limit) - 1));
      wire[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    // Either outcome is fine; surviving without UB is the assertion (ASan
    // and UBSan builds make that check real).
    (void)transport::decode_datagram(wire.data(), wire.size());
  }
}

// --- the ProtocolCodec bridge and the host's decode_errors counter ----------

TEST(ProtocolCodec, EncodesAndDecodesThroughTheAbstractInterface) {
  const ProtocolCodec codec;
  DataMsg d;
  d.seq = 2;
  d.body = "abc";
  std::string wire;
  ASSERT_TRUE(codec.encode(std::any{ProtocolMessage{d}}, wire));
  const std::any back = codec.decode(wire.data(), wire.size());
  ASSERT_TRUE(back.has_value());
  const auto* m = std::any_cast<ProtocolMessage>(&back);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(std::get<DataMsg>(*m).seq, 2u);
}

TEST(ProtocolCodec, MalformedPayloadDecodesToEmptyAny) {
  const ProtocolCodec codec;
  EXPECT_FALSE(codec.decode("garbage", 7).has_value());
  // A payload that is not a ProtocolMessage is refused, not asserted on.
  std::string out;
  EXPECT_FALSE(codec.encode(std::any{42}, out));
  EXPECT_TRUE(out.empty());
}

TEST(BroadcastHostCounters, MalformedPayloadCountedAndDropped) {
  sim::Simulator sim;
  rbcast::testing::FakeHub hub(sim);
  const std::vector<HostId> all{HostId{0}, HostId{1}};
  BroadcastHost host(hub, HostId{1}, HostId{0}, all, Config{}, util::Rng(1));

  net::Delivery d;
  d.from = HostId{0};
  d.to = HostId{1};
  d.payload = std::any{};  // what UdpTransport delivers on codec failure
  d.bytes = 12;
  d.kind = "data";
  host.on_delivery(d);

  EXPECT_EQ(host.counters().decode_errors, 1u);
  EXPECT_EQ(host.counters().deliveries, 0u);
  // A malformed datagram must not vouch for its claimed sender: the host
  // learned nothing about host 0's cluster membership or liveness, so
  // CLUSTER is still its initial {self}.
  const auto cluster = host.state().cluster();
  EXPECT_EQ(std::set<HostId>(cluster.begin(), cluster.end()),
            std::set<HostId>{HostId{1}});
}

}  // namespace
}  // namespace rbcast::core
