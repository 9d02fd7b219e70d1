// Test double for the network: a transport::Transport that connects
// protocol hosts with scriptable per-pair cost bits, drops and delays — so
// protocol logic can be exercised without the full net substrate, through
// the same constructors production code uses.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "sim/simulator.h"
#include "transport/transport.h"
#include "util/assert.h"
#include "util/ids.h"

namespace rbcast::testing {

class FakeHub final : public transport::Transport {
 public:
  explicit FakeHub(sim::Simulator& simulator) : simulator_(simulator) {}

  // Every message sent through any endpoint, in order.
  struct Sent {
    HostId from;
    HostId to;
    std::any payload;
    std::size_t bytes;
    std::string kind;
    sim::TimePoint at;
    net::TraceId trace_id{0};
  };
  std::vector<Sent> log;

  // One-way base delay from any host to any other.
  sim::Duration delay{sim::milliseconds(1)};

  [[nodiscard]] util::Scheduler& scheduler() override { return simulator_; }

  // Endpoints live as long as the hub; detach() only stops deliveries.
  net::HostEndpoint& attach(HostId id, net::DeliveryFn deliver) override {
    RBCAST_CHECK_ARG(receivers_.emplace(id, std::move(deliver)).second,
                     "fake hub: host already attached");
    auto& endpoint = endpoints_[id];
    if (endpoint == nullptr) endpoint = std::make_unique<Endpoint>(*this, id);
    return *endpoint;
  }

  void detach(HostId id) override { receivers_.erase(id); }

  // Marks the (symmetric) pair as connected only via expensive links:
  // deliveries between them carry cost bit 1.
  void set_expensive(HostId a, HostId b, bool expensive) {
    if (expensive) {
      expensive_pairs_.insert(key(a, b));
    } else {
      expensive_pairs_.erase(key(a, b));
    }
  }

  // Drops everything sent from a to b (one direction).
  void set_drop(HostId a, HostId b, bool drop) {
    if (drop) {
      dropped_.insert({a, b});
    } else {
      dropped_.erase({a, b});
    }
  }

  // Drops everything to and from `h` (simulates disconnection).
  void isolate(HostId h, const std::vector<HostId>& others, bool isolated) {
    for (HostId o : others) {
      if (o == h) continue;
      set_drop(h, o, isolated);
      set_drop(o, h, isolated);
    }
  }

  [[nodiscard]] std::size_t sent_count(const std::string& kind) const {
    std::size_t n = 0;
    for (const auto& s : log) {
      if (s.kind == kind) ++n;
    }
    return n;
  }

 private:
  class Endpoint final : public net::HostEndpoint {
   public:
    Endpoint(FakeHub& hub, HostId self) : hub_(hub), self_(self) {}
    [[nodiscard]] HostId self() const override { return self_; }
    void send(HostId to, std::any payload, std::size_t bytes,
              std::string kind, net::TraceId trace_id) override {
      hub_.dispatch(self_, to, std::move(payload), bytes, std::move(kind),
                    trace_id);
    }

   private:
    FakeHub& hub_;
    HostId self_;
  };

  static std::pair<HostId, HostId> key(HostId a, HostId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  void dispatch(HostId from, HostId to, std::any payload, std::size_t bytes,
                std::string kind, net::TraceId trace_id) {
    log.push_back(
        Sent{from, to, payload, bytes, kind, simulator_.now(), trace_id});
    if (dropped_.contains({from, to})) return;
    const bool expensive = expensive_pairs_.contains(key(from, to));
    net::Delivery d{.from = from,
                    .to = to,
                    .expensive = expensive,
                    .payload = std::move(payload),
                    .bytes = bytes,
                    .kind = std::move(kind),
                    .sent_at = simulator_.now(),
                    .hops = 1,
                    .trace_id = trace_id};
    simulator_.after(delay, [this, d = std::move(d)] {
      auto it = receivers_.find(d.to);
      if (it != receivers_.end()) it->second(d);
    });
  }

  sim::Simulator& simulator_;
  std::map<HostId, std::unique_ptr<Endpoint>> endpoints_;
  std::map<HostId, net::DeliveryFn> receivers_;
  std::set<std::pair<HostId, HostId>> expensive_pairs_;
  std::set<std::pair<HostId, HostId>> dropped_;
};

}  // namespace rbcast::testing
