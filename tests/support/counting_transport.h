// A transport whose endpoints only count what they are handed. It keeps
// nothing, so an allocation measured around a host's upcall or round
// belongs to the host, not to a network or a harness. `on_send` (optional,
// set before measuring) sees each sent message before it is dropped.
#pragma once

#include <any>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/messages.h"
#include "sim/simulator.h"
#include "transport/transport.h"

namespace rbcast::testing {

class CountingTransport final : public transport::Transport {
 public:
  using SendFn = std::function<void(HostId to, const core::ProtocolMessage&)>;

  std::size_t sends = 0;
  SendFn on_send;

  [[nodiscard]] util::Scheduler& scheduler() override { return simulator_; }

  net::HostEndpoint& attach(HostId id, net::DeliveryFn) override {
    auto& endpoint = endpoints_[id];
    endpoint = std::make_unique<Endpoint>(*this, id);
    return *endpoint;
  }

  void detach(HostId) override {}

 private:
  class Endpoint final : public net::HostEndpoint {
   public:
    Endpoint(CountingTransport& owner, HostId self)
        : owner_(owner), self_(self) {}
    [[nodiscard]] HostId self() const override { return self_; }
    void send(HostId to, std::any payload, std::size_t, std::string,
              net::TraceId) override {
      ++owner_.sends;
      const auto* message = std::any_cast<core::ProtocolMessage>(&payload);
      if (message != nullptr && owner_.on_send) owner_.on_send(to, *message);
    }

   private:
    CountingTransport& owner_;
    HostId self_;
  };

  sim::Simulator simulator_;
  std::map<HostId, std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace rbcast::testing
