// Per-source authentication (core/auth.h): tag algebra, the wire layout
// of authenticated DATA frames, the BroadcastHost reject path, and a
// seeded adversarial fuzz over mutated authenticated frames — the
// defense's trust boundary must hold under arbitrary single-frame
// tampering without crashing or perturbing protocol state.
#include "core/auth.h"

#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/broadcast_host.h"
#include "core/messages.h"
#include "core/wire_codec.h"
#include "support/fake_network.h"
#include "support/fast_config.h"
#include "util/rng.h"

namespace rbcast::core {
namespace {

using rbcast::testing::FakeHub;

constexpr std::uint64_t kSecret = 0x1234abcd5678ef01ULL;

// --- tag algebra ------------------------------------------------------------

TEST(AuthTag, MakeVerifyRoundTrip) {
  const AuthTag t = make_auth_tag(kSecret, HostId{3}, 7, "hello");
  EXPECT_EQ(t.digest, payload_digest("hello"));
  EXPECT_EQ(t.tag, auth_mac(kSecret, HostId{3}, 7, t.digest));
  EXPECT_TRUE(verify_auth_tag(kSecret, HostId{3}, 7, "hello", t));
}

TEST(AuthTag, IsDeterministic) {
  EXPECT_EQ(make_auth_tag(kSecret, HostId{1}, 2, "x"),
            make_auth_tag(kSecret, HostId{1}, 2, "x"));
}

TEST(AuthTag, BindsEveryField) {
  const AuthTag t = make_auth_tag(kSecret, HostId{3}, 7, "hello");
  // Body, seq, source and secret each invalidate the tag when changed.
  EXPECT_FALSE(verify_auth_tag(kSecret, HostId{3}, 7, "hellO", t));
  EXPECT_FALSE(verify_auth_tag(kSecret, HostId{3}, 8, "hello", t));
  EXPECT_FALSE(verify_auth_tag(kSecret, HostId{4}, 7, "hello", t));
  EXPECT_FALSE(verify_auth_tag(kSecret + 1, HostId{3}, 7, "hello", t));
  // A relay that recomputes the digest over a mutated body but cannot
  // recompute the keyed tag still fails verification.
  AuthTag forged = t;
  forged.digest = payload_digest("hellO");
  EXPECT_FALSE(verify_auth_tag(kSecret, HostId{3}, 7, "hellO", forged));
}

TEST(AuthTag, DigestPinsExactBytes) {
  EXPECT_NE(payload_digest("ab"), payload_digest("ba"));
  EXPECT_NE(payload_digest(""), payload_digest(std::string(1, '\0')));
}

// --- wire layout ------------------------------------------------------------

TEST(AuthWire, AuthenticatedDataRoundTrips) {
  DataMsg d;
  d.seq = 9;
  d.body = "payload";
  d.auth = make_auth_tag(kSecret, HostId{0}, 9, "payload");
  const std::string wire = encode_message(ProtocolMessage{d});
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<DataMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  ASSERT_TRUE(out->auth.has_value());
  EXPECT_EQ(*out->auth, *d.auth);
  EXPECT_TRUE(verify_auth_tag(kSecret, HostId{0}, 9, out->body.view(),
                              *out->auth));
}

TEST(AuthWire, AuthTagCoexistsWithGapFillAndPiggyback) {
  DataMsg d;
  d.seq = 4;
  d.body = "b";
  d.gap_fill = true;
  SeqSet have;
  have.insert_range(1, 4);
  d.piggyback = {have, HostId{2}};
  d.auth = make_auth_tag(kSecret, HostId{0}, 4, "b");
  const std::string wire = encode_message(ProtocolMessage{d});
  const auto decoded = decode_message(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  const auto* out = std::get_if<DataMsg>(&*decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->gap_fill);
  ASSERT_TRUE(out->piggyback.has_value());
  ASSERT_TRUE(out->auth.has_value());
  EXPECT_EQ(*out->auth, *d.auth);
}

TEST(AuthWire, TruncatedAuthTagRejected) {
  DataMsg d;
  d.seq = 1;
  d.body = "m";
  d.auth = make_auth_tag(kSecret, HostId{0}, 1, "m");
  const std::string wire = encode_message(ProtocolMessage{d});
  for (std::size_t cut = 1; cut <= 16; ++cut) {
    EXPECT_FALSE(decode_message(wire.data(), wire.size() - cut).has_value())
        << "cut " << cut;
  }
}

TEST(AuthWire, WireSizeAccountsForTheTag) {
  DataMsg plain;
  plain.seq = 1;
  plain.body = "m";
  DataMsg tagged = plain;
  tagged.auth = make_auth_tag(kSecret, HostId{0}, 1, "m");
  EXPECT_EQ(wire_size(ProtocolMessage{tagged}),
            wire_size(ProtocolMessage{plain}) + 16);
  EXPECT_EQ(encode_message(ProtocolMessage{tagged}).size(),
            encode_message(ProtocolMessage{plain}).size() + 16);
}

// --- BroadcastHost reject path ---------------------------------------------

Config auth_config() {
  Config c = rbcast::testing::hub_config();
  c.auth_enabled = true;
  return c;
}

struct Cluster {
  sim::Simulator sim;
  FakeHub hub{sim};
  std::vector<std::unique_ptr<BroadcastHost>> nodes;
  std::vector<std::vector<Seq>> delivered;

  explicit Cluster(int n, Config config = auth_config(),
                   HostId source = HostId{0}) {
    std::vector<HostId> all;
    for (int i = 0; i < n; ++i) all.push_back(HostId{i});
    delivered.resize(static_cast<std::size_t>(n));
    util::RngFactory rngs(7);
    for (int i = 0; i < n; ++i) {
      const HostId id{i};
      nodes.push_back(std::make_unique<BroadcastHost>(
          hub, id, source, all, config, rngs.stream("jitter", i),
          [this, i](Seq seq, std::string_view) {
            delivered[static_cast<std::size_t>(i)].push_back(seq);
          }));
    }
  }

  BroadcastHost& node(int i) { return *nodes[static_cast<std::size_t>(i)]; }
  void start_all() {
    for (auto& n : nodes) n->start();
  }
  void run_for(sim::Duration d) { sim.run_until(sim.now() + d); }
};

net::Delivery data_delivery(HostId from, HostId to, const DataMsg& m) {
  return net::Delivery{.from = from,
                       .to = to,
                       .expensive = false,
                       .payload = std::any(ProtocolMessage{m}),
                       .bytes = 64,
                       .kind = "data",
                       .sent_at = 0,
                       .hops = 1};
}

TEST(AuthHost, UntaggedDataRejectedWhenAuthEnabled) {
  Cluster c(2);
  DataMsg m;
  m.seq = 1;
  m.body = "naked";
  c.node(1).on_delivery(data_delivery(HostId{0}, HostId{1}, m));
  EXPECT_EQ(c.node(1).counters().auth_rejects, 1u);
  EXPECT_TRUE(c.node(1).info().empty());
  EXPECT_TRUE(c.delivered[1].empty());
  // The reject happens before liveness bookkeeping: a frame that cannot
  // prove its origin must not vouch for the sender either.
  EXPECT_TRUE(c.node(1).state().map(HostId{0}).empty());
}

TEST(AuthHost, TamperedBodyRejectedValidTagAccepted) {
  Cluster c(2);
  // Form the tree first: new-max data is only accepted from the parent.
  c.start_all();
  c.run_for(sim::seconds(2));
  ASSERT_EQ(c.node(1).parent(), HostId{0});
  DataMsg m;
  m.seq = 1;
  m.body = "genuine";
  m.auth = make_auth_tag(auth_config().auth_secret, HostId{0}, 1, "genuine");

  DataMsg tampered = m;
  tampered.body = "Genuine";  // relay flipped a byte, kept the tag
  c.node(1).on_delivery(data_delivery(HostId{0}, HostId{1}, tampered));
  EXPECT_EQ(c.node(1).counters().auth_rejects, 1u);
  EXPECT_TRUE(c.node(1).info().empty());

  c.node(1).on_delivery(data_delivery(HostId{0}, HostId{1}, m));
  EXPECT_EQ(c.node(1).counters().auth_rejects, 1u);
  EXPECT_EQ(c.delivered[1], (std::vector<Seq>{1}));
}

TEST(AuthHost, RelayedFramesKeepTheSourceTag) {
  // End to end with auth on everywhere: the stream converges, every
  // relayed frame still verifies, and nothing is rejected.
  Cluster c(3);
  c.start_all();
  for (int k = 1; k <= 4; ++k) {
    c.node(0).broadcast("m" + std::to_string(k));
    c.run_for(sim::seconds(1));
  }
  c.run_for(sim::seconds(3));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(c.node(i).info().count(), 4u) << "host " << i;
    EXPECT_EQ(c.node(i).counters().auth_rejects, 0u) << "host " << i;
  }
}

TEST(AuthHost, DisabledConfigIgnoresTags) {
  Config c = auth_config();
  c.auth_enabled = false;
  Cluster cluster(2, c);
  cluster.start_all();
  cluster.run_for(sim::seconds(2));
  ASSERT_EQ(cluster.node(1).parent(), HostId{0});
  DataMsg m;
  m.seq = 1;
  m.body = "naked";
  cluster.node(1).on_delivery(data_delivery(HostId{0}, HostId{1}, m));
  EXPECT_EQ(cluster.node(1).counters().auth_rejects, 0u);
  EXPECT_EQ(cluster.delivered[1], (std::vector<Seq>{1}));
}

// --- adversarial fuzz -------------------------------------------------------

// 2000 rounds of seeded tampering with authenticated DATA frames. Every
// mutated frame must be rejected at one of the two trust boundaries — the
// codec (decode failure -> decode_errors) or the auth check
// (auth_rejects) — and must leave every bit of protocol state untouched:
// no delivery, no INFO growth, no cluster change, no liveness credit for
// the claimed sender.
TEST(AuthFuzz, MutatedAuthenticatedFramesNeverCrashOrPerturbState) {
  Cluster c(2);
  const std::uint64_t secret = auth_config().auth_secret;
  util::Rng rng(20260809);

  const auto cluster_view = c.node(1).state().cluster();
  const std::set<HostId> cluster_before(cluster_view.begin(),
                                        cluster_view.end());
  int rejected_by_auth = 0;
  int rejected_by_codec = 0;
  int still_authentic = 0;
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    DataMsg m;
    m.seq = static_cast<Seq>(1 + rng.uniform_int(0, 5));
    m.body = "fuzz-body-" + std::to_string(round % 7);
    m.gap_fill = rng.uniform_int(0, 1) == 1;
    m.auth = make_auth_tag(secret, HostId{0}, m.seq, m.body.view());
    std::string wire = encode_message(ProtocolMessage{m});

    // Flip 1-3 bytes anywhere past the type tag; each flip is non-zero,
    // so the frame almost always differs from what the source signed.
    const int flips = rng.uniform_int(1, 3);
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<int>(wire.size()) - 1));
      wire[pos] = static_cast<char>(wire[pos] ^
                                    static_cast<char>(rng.uniform_int(1, 255)));
    }

    // A flip can land on unauthenticated metadata (the gap_fill bit) or
    // cancel itself out, leaving a frame whose (source, seq, body) still
    // verify. The defense's contract is exactly those three fields, so
    // such frames are legitimately acceptable; classify and skip them.
    const auto decoded = decode_message(wire.data(), wire.size());
    if (decoded.has_value()) {
      const auto* dm = std::get_if<DataMsg>(&*decoded);
      if (dm != nullptr && dm->auth.has_value() &&
          verify_auth_tag(secret, HostId{0}, dm->seq, dm->body.view(),
                          *dm->auth)) {
        ++still_authentic;
        continue;
      }
    }

    net::Delivery d{.from = HostId{0},
                    .to = HostId{1},
                    .expensive = false,
                    .payload = decoded.has_value()
                                   ? std::any(ProtocolMessage{*decoded})
                                   : std::any{},
                    .bytes = wire.size(),
                    .kind = "data",
                    .sent_at = 0,
                    .hops = 1};
    c.node(1).on_delivery(d);
    if (decoded.has_value()) {
      ++rejected_by_auth;
    } else {
      ++rejected_by_codec;
    }
  }

  // Counters advanced and partitioned the rounds exactly.
  const auto& counters = c.node(1).counters();
  EXPECT_EQ(counters.auth_rejects, static_cast<std::uint64_t>(rejected_by_auth));
  EXPECT_EQ(counters.decode_errors,
            static_cast<std::uint64_t>(rejected_by_codec));
  EXPECT_EQ(rejected_by_auth + rejected_by_codec + still_authentic, kRounds);
  // Both boundaries were actually exercised by the seed, and the
  // metadata-only escape hatch stayed rare.
  EXPECT_GT(rejected_by_auth, 100);
  EXPECT_GT(rejected_by_codec, 100);
  EXPECT_LT(still_authentic, 50);

  // Protocol state is untouched.
  EXPECT_TRUE(c.node(1).info().empty());
  EXPECT_TRUE(c.delivered[1].empty());
  EXPECT_EQ(std::set<HostId>(cluster_view.begin(), cluster_view.end()),
            cluster_before);
  EXPECT_TRUE(c.node(1).state().map(HostId{0}).empty());
  EXPECT_FALSE(c.node(1).parent().valid());
}

}  // namespace
}  // namespace rbcast::core
