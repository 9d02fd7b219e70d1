// SimTransport — the Transport over the discrete-event simulator.
//
// Every simulated protocol — the paper's hosts, both baselines, the
// multi-source node — attaches through this class, and it is the only
// caller of Network::register_host and Network::endpoint in src/.
//
// With batching off (the default CoalescerConfig) this is a pure
// forwarding adapter: attach() is exactly Network::register_host +
// Network::endpoint, and scheduler() is the simulator itself. No extra
// events, no RNG draws — a run wired through SimTransport is bit-for-bit
// identical (same EventLog::digest()) to one wired directly, which is what
// the determinism gate holds this adapter to.
//
// With batching on, each attached host sends through a
// transport::Coalescer: frames to the same destination ride one network
// message (kind "batch", charged the version-2 container byte count), and
// the receive side unpacks the batch into per-frame deliveries before the
// host sees them. The simulator never serializes payloads, so a SimBatch
// carries the queued std::any payloads through in-process — the byte
// accounting matches what UdpTransport would put on a real wire.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"
#include "transport/coalescer.h"
#include "transport/transport.h"

namespace rbcast::transport {

// The in-process stand-in for a version-2 batch container: what a batched
// SimTransport send carries inside Delivery::payload.
struct SimBatch {
  std::vector<Coalescer::Item> items;
};

class SimTransport final : public Transport {
 public:
  // Both references must outlive this object (and any attached host).
  // `coalesce` defaults to disabled, which keeps the zero-overhead
  // forwarding path.
  // Out of line: BatchingEndpoint is an incomplete type here.
  SimTransport(sim::Simulator& simulator, net::Network& network,
               CoalescerConfig coalesce = {});
  ~SimTransport() override;

  [[nodiscard]] util::Scheduler& scheduler() override { return simulator_; }

  // Throws std::invalid_argument if `host` is already attached; attach it
  // again only after detach().
  net::HostEndpoint& attach(HostId host, net::DeliveryFn deliver) override;

  // Network keeps registrations for its whole lifetime; detaching just
  // disconnects the upcall (and flushes any frames still coalescing) so a
  // destroyed host is never called back. A no-op for an unattached host.
  void detach(HostId host) override;

  [[nodiscard]] bool batching() const { return coalesce_.enabled(); }

  // Aggregate coalescer stats over all attached hosts (zeros when
  // batching is off).
  [[nodiscard]] Coalescer::Stats coalescer_stats() const;

  // Frames currently queued across all hosts' coalescers (0 when batching
  // is off).
  [[nodiscard]] std::size_t coalescer_pending_frames() const;

  // Registers the shared transport.coalescer.* series (same names as
  // UdpTransport::register_metrics) so sim traces carry wire-transport
  // stats through MetricSampler's "registry" record. Reading a snapshot
  // touches only deterministic simulation state.
  void register_metrics(util::MetricsRegistry& registry);

 private:
  class BatchingEndpoint;

  sim::Simulator& simulator_;
  net::Network& network_;
  CoalescerConfig coalesce_;
  std::set<HostId> attached_;
  // Batched endpoints outlive detach(): a host destructor may still hold
  // the reference while tearing down. Ordered for deterministic teardown.
  std::map<HostId::value_type, std::unique_ptr<BatchingEndpoint>> endpoints_;
};

}  // namespace rbcast::transport
