// Epidemic (anti-entropy) baseline — the alternative the paper points to
// for settings where hosts do not know each other: "See [Deme87] for a
// possible solution" (Section 2, citing Demers et al., "Epidemic
// Algorithms for Replicated Database Management", PODC 1987).
//
// Implemented as classic push-pull anti-entropy over the same
// nonprogrammable-server network: each host periodically picks a few
// random peers and sends its INFO digest; a digest recipient pushes
// messages the sender lacks and, if it is itself behind, answers with its
// own digest (one round of ping-pong, flagged to terminate). The source
// simply records its stream; dissemination is entirely epidemic.
//
// Gossip is robust and membership-light but *cluster-oblivious*: peers are
// picked uniformly, so most exchanges cross expensive links. The benches
// use it as a second baseline against the paper's cluster tree.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "net/message.h"
#include "transport/transport.h"
#include "util/scheduler.h"
#include "util/rng.h"
#include "util/seq_set.h"

namespace rbcast::core {

using util::Seq;
using util::SeqSet;

// Digest of the sender's INFO set. `reply` marks the second leg of a
// push-pull exchange (a reply digest is never answered with another
// digest, which terminates the ping-pong).
struct GossipDigest {
  SeqSet info;
  bool reply{false};
};

// One message of the stream, pushed to a peer that lacks it.
struct GossipData {
  Seq seq{0};
  std::string body;
};

using GossipMessage = std::variant<GossipDigest, GossipData>;

[[nodiscard]] std::size_t wire_size(const GossipMessage& m);
[[nodiscard]] const char* kind_of(const GossipMessage& m);

struct GossipConfig {
  // Anti-entropy round period.
  util::Duration gossip_period{util::seconds(1)};
  // Peers contacted per round.
  int fanout{2};
};

class GossipNode {
 public:
  using AppDeliverFn = std::function<void(Seq, const std::string& body)>;

  // Attaches `self` to `transport` (which must outlive this object) and
  // runs gossip rounds on its scheduler; the destructor detaches.
  GossipNode(transport::Transport& transport, HostId self, HostId source,
             std::vector<HostId> all_hosts, GossipConfig config,
             util::Rng rng, AppDeliverFn app_deliver = {});
  ~GossipNode();

  GossipNode(const GossipNode&) = delete;
  GossipNode& operator=(const GossipNode&) = delete;

  void start();

  // Source only.
  Seq broadcast(std::string body);

  void on_delivery(const net::Delivery& delivery);

  [[nodiscard]] HostId self() const { return endpoint_.self(); }
  [[nodiscard]] bool is_source() const { return self() == source_; }
  [[nodiscard]] const SeqSet& info() const { return info_; }

  struct Counters {
    std::uint64_t rounds{0};
    std::uint64_t digests_sent{0};
    std::uint64_t pushes_sent{0};
    std::uint64_t deliveries{0};
    std::uint64_t duplicates{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  void gossip_round();
  void handle_digest(HostId from, const GossipDigest& digest);
  void handle_data(HostId from, const GossipData& data);
  void push_missing(HostId to, const SeqSet& peer_info);
  void send(HostId to, GossipMessage m);

  transport::Transport& transport_;
  HostId source_;
  GossipConfig config_;
  // Initialized after config_ is validated, so a rejected construction
  // never leaves `self` attached.
  net::HostEndpoint& endpoint_;
  std::vector<HostId> peers_;  // everyone but self
  util::Rng rng_;
  AppDeliverFn app_deliver_;

  SeqSet info_;
  std::map<Seq, std::string> bodies_;
  Seq next_seq_{1};
  Counters counters_;
  std::unique_ptr<util::PeriodicTask> round_task_;
};

}  // namespace rbcast::core
