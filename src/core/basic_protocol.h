// The "basic algorithm" the paper compares against (Sections 1 and 5):
// "send a separately addressed copy of [the message] to every host in the
// network and repeat this process until an acknowledgment is received."
//
// Implemented faithfully, including its pathologies the evaluation
// measures: every data message costs one unicast per destination (all
// funneled through the source's server — the congestion claim, E5), lost
// messages are redelivered only by the source (the recovery-locality
// claim, E3), and during a partition the source keeps retransmitting to
// unreachable hosts forever (the wasted-transmissions claim, E4).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
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

struct BasicData {
  Seq seq{0};
  std::string body;
};

struct BasicAck {
  Seq seq{0};
};

using BasicMessage = std::variant<BasicData, BasicAck>;

[[nodiscard]] std::size_t wire_size(const BasicMessage& m);
[[nodiscard]] const char* kind_of(const BasicMessage& m);

struct BasicConfig {
  // How often unacknowledged (host, seq) pairs are retransmitted.
  util::Duration retransmit_period{util::seconds(2)};
};

// The source role of the basic algorithm.
class BasicSource {
 public:
  // Attaches `self` to `transport` (which must outlive this object) and
  // runs retransmissions on its scheduler; the destructor detaches.
  BasicSource(transport::Transport& transport, HostId self,
              std::vector<HostId> all_hosts, BasicConfig config,
              util::Rng rng);
  ~BasicSource();

  BasicSource(const BasicSource&) = delete;
  BasicSource& operator=(const BasicSource&) = delete;

  void start();

  // Unicasts `body` to every other host; retransmits until acknowledged.
  Seq broadcast(std::string body);

  // Network upcall (acknowledgments).
  void on_delivery(const net::Delivery& delivery);

  [[nodiscard]] HostId self() const { return endpoint_.self(); }

  // (host, seq) pairs still awaiting acknowledgment.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] bool fully_acked(Seq seq) const;

  struct Counters {
    std::uint64_t first_sends{0};
    std::uint64_t retransmissions{0};
    std::uint64_t acks_received{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  void retransmit_round();

  transport::Transport& transport_;
  net::HostEndpoint& endpoint_;
  std::vector<HostId> destinations_;  // all hosts except self
  BasicConfig config_;
  util::Rng rng_;

  Seq next_seq_{1};
  std::map<Seq, std::string> bodies_;
  // unacked_[seq] = destinations that have not acknowledged seq yet.
  std::map<Seq, std::set<HostId>> unacked_;
  Counters counters_;
  std::unique_ptr<util::PeriodicTask> retransmit_task_;
};

// The receiver role: acknowledge everything, deliver each message once.
class BasicReceiver {
 public:
  using AppDeliverFn = std::function<void(Seq, const std::string& body)>;

  // Attaches `self` to `transport` (which must outlive this object); the
  // destructor detaches.
  BasicReceiver(transport::Transport& transport, HostId self,
                AppDeliverFn app_deliver = {});
  ~BasicReceiver();

  BasicReceiver(const BasicReceiver&) = delete;
  BasicReceiver& operator=(const BasicReceiver&) = delete;

  void on_delivery(const net::Delivery& delivery);

  [[nodiscard]] HostId self() const { return endpoint_.self(); }
  [[nodiscard]] const util::SeqSet& received() const { return received_; }

  struct Counters {
    std::uint64_t deliveries{0};
    std::uint64_t duplicates{0};
    std::uint64_t acks_sent{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  transport::Transport& transport_;
  net::HostEndpoint& endpoint_;
  AppDeliverFn app_deliver_;
  util::SeqSet received_;
  Counters counters_;
};

}  // namespace rbcast::core
