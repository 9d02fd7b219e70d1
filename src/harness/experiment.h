// Experiment — one-call wiring of a complete scenario.
//
// Owns the simulator, the network built over a given topology, the metrics
// registry, a fault plan, and a full set of protocol hosts (the paper's
// protocol or one of the baselines), every one attached through a single
// transport::SimTransport. Tests, examples and every bench binary are
// written against this class.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/basic_protocol.h"
#include "core/broadcast_host.h"
#include "core/config.h"
#include "core/gossip_protocol.h"
#include "core/ordered_delivery.h"
#include "core/protocol_observer.h"
#include "harness/byzantine.h"
#include "harness/invariant_monitor.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "trace/convergence.h"
#include "transport/sim_transport.h"
#include "trace/event_log.h"
#include "trace/metric_sampler.h"
#include "trace/metrics.h"
#include "trace/net_tap.h"
#include "trace/trace_sink.h"
#include "util/rng.h"

namespace rbcast::harness {

enum class ProtocolKind {
  kPaper,   // the paper's cluster-tree protocol (core::BroadcastHost)
  kBasic,   // the Section-1 baseline (core::BasicSource/BasicReceiver)
  kGossip,  // anti-entropy epidemic baseline (core::GossipNode, [Deme87])
};

struct ScenarioOptions {
  ProtocolKind protocol_kind{ProtocolKind::kPaper};
  core::Config protocol{};
  core::BasicConfig basic{};
  core::GossipConfig gossip{};
  net::NetConfig net{};
  HostId source{0};
  std::uint64_t seed{1};
  // When true (paper protocol only), applications see messages in strict
  // sequence order through core::OrderedDeliveryAdapter; delivery metrics
  // then measure in-order availability rather than first receipt. The
  // paper's Section 1 argues unordered delivery is the cheaper default.
  bool ordered_delivery{false};
  // When true (paper protocol only), an InvariantMonitor shadows the run,
  // checking the model checker's safety invariants I1-I5 online plus the
  // C1-C3 liveness conditions (armed via monitor()->set_faults_quiet_at).
  // Read-only: enabling it does not change the protocol event digest.
  bool monitor_invariants{false};
  MonitorOptions monitor{};
  // Byzantine adversary schedule (paper protocol only): hosts named here
  // send through a mutating ByzantineTransport interposer. Empty (the
  // default) leaves the transport wiring untouched, so the determinism
  // digests are unaffected unless an adversary is actually scheduled.
  ByzantineSchedule byzantine{};
};

class Experiment {
 public:
  // The topology is moved in and must be fully built.
  Experiment(topo::Topology topology, ScenarioOptions options);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Arms all hosts' periodic activities. Call once before running.
  void start();

  // --- tracing -------------------------------------------------------------

  // Streams the run into `sink` (nullptr to stop): the run manifest is
  // emitted immediately, then every protocol event (EventLog mirror) and
  // every host-level network event (trace::NetTap) as they happen.
  // Install before start() so the trace covers the whole run.
  void set_trace_sink(trace::TraceSink* sink);

  // Starts periodic metric sampling (counter deltas, backlog, latency
  // distribution, tree shape) into the installed sink, every `period`.
  // Requires a sink; call after set_trace_sink and before running.
  void enable_metric_sampling(sim::Duration period);

  // The manifest record describing this run (seed, topology, protocol,
  // config, build) — what set_trace_sink writes first, also useful for
  // printing the reproduction line to stdout.
  [[nodiscard]] trace::TraceRecord manifest() const;

  // The sampler, when enabled (sample_now() at run end closes the series).
  [[nodiscard]] trace::MetricSampler* sampler() { return sampler_.get(); }

  // --- workload -----------------------------------------------------------

  // Broadcasts one message now (body auto-generated to the configured
  // size unless given). Records broadcast time in the metrics.
  util::Seq broadcast(std::string body = {});

  // Schedules `count` broadcasts, one every `interval`, starting at
  // `first_at`.
  void broadcast_stream(int count, sim::Duration interval,
                        sim::TimePoint first_at);

  // Schedules a single broadcast at an absolute time (building block for
  // arbitrary workloads; see harness/workload.h).
  void schedule_broadcast_at(sim::TimePoint t);

  // --- execution ------------------------------------------------------------

  void run_until(sim::TimePoint t) { simulator_.run_until(t); }
  void run_for(sim::Duration d) { simulator_.run_for(d); }

  // Runs until every host holds every broadcast message, polling every
  // `poll`; gives up at `deadline`. Returns the completion time, or
  // `deadline` if incomplete.
  sim::TimePoint run_until_delivered(sim::TimePoint deadline,
                                     sim::Duration poll = sim::seconds(1));

  // --- state queries -----------------------------------------------------

  [[nodiscard]] bool all_delivered() const;
  [[nodiscard]] trace::ConvergenceReport convergence() const;

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::Network& network() { return *network_; }
  // The transport every protocol's hosts run over — benches read its
  // coalescer stats to report datagram amortization when batching is on.
  [[nodiscard]] transport::SimTransport& transport() { return *transport_; }
  // The Byzantine decorator, when a schedule was given (else nullptr).
  [[nodiscard]] ByzantineTransport* byzantine() {
    return byzantine_transport_.get();
  }
  [[nodiscard]] net::FaultPlan& faults() { return *faults_; }
  [[nodiscard]] trace::Metrics& metrics() { return *metrics_; }
  // The runtime metrics registry: the sim transport's coalescer stats are
  // registered at construction, and enable_metric_sampling() folds its
  // counters into the trace as "registry" records. Observation-only.
  [[nodiscard]] util::MetricsRegistry& registry() { return registry_; }
  // Protocol event timeline (paper protocol only; empty for the baseline).
  [[nodiscard]] trace::EventLog& events() { return *events_; }
  // The online invariant monitor (nullptr unless monitor_invariants).
  [[nodiscard]] InvariantMonitor* monitor() { return monitor_.get(); }
  [[nodiscard]] const topo::Topology& topology() const { return topology_; }
  [[nodiscard]] const util::RngFactory& rngs() const { return rngs_; }
  [[nodiscard]] HostId source() const { return options_.source; }
  [[nodiscard]] std::size_t host_count() const {
    return topology_.host_count();
  }

  // Paper-protocol accessors (precondition: protocol_kind == kPaper).
  [[nodiscard]] core::BroadcastHost& host(HostId id);
  [[nodiscard]] std::vector<const core::BroadcastHost*> host_views() const;

  // Baseline accessors (precondition: protocol_kind == kBasic).
  [[nodiscard]] core::BasicSource& basic_source();

  // Gossip accessors (precondition: protocol_kind == kGossip).
  [[nodiscard]] core::GossipNode& gossip_node(HostId id);

  // Ordered-delivery accessor (precondition: ordered_delivery was set and
  // `id` is not the source).
  [[nodiscard]] core::OrderedDeliveryAdapter& ordered_adapter(HostId id);

  [[nodiscard]] util::Seq last_seq() const { return last_seq_; }

 private:
  topo::Topology topology_;
  ScenarioOptions options_;
  util::RngFactory rngs_;
  sim::Simulator simulator_;
  // Declared before the transport (which registers callbacks into it) so
  // registrations never dangle while snapshots are possible.
  util::MetricsRegistry registry_;
  std::unique_ptr<net::Network> network_;
  // Every protocol's hosts attach through this Transport seam
  // (SimTransport is a pure forwarding adapter when batching is off, so
  // the wiring is digest-invisible); declared before the hosts so it
  // outlives them.
  std::unique_ptr<transport::SimTransport> transport_;
  // Byzantine decorator over transport_ (ScenarioOptions::byzantine);
  // declared after the transport it wraps and before the hosts that
  // attach through it.
  std::unique_ptr<ByzantineTransport> byzantine_transport_;
  std::unique_ptr<trace::Metrics> metrics_;
  std::unique_ptr<trace::EventLog> events_;
  std::unique_ptr<net::FaultPlan> faults_;

  // Tracing (optional). The fanout lets metrics, the net tap and the
  // invariant monitor observe one network; rebuilt whenever the sink
  // changes. The sampler reads trace::Metrics, so it observes nothing.
  trace::TraceSink* sink_{nullptr};
  net::NetObserverFanout observer_fanout_;
  std::unique_ptr<trace::NetTap> net_tap_;
  std::unique_ptr<trace::MetricSampler> sampler_;

  [[nodiscard]] const char* protocol_name() const;
  void install_observers();

  // Invariant monitoring (optional). The protocol fanout lets the event
  // log and the monitor watch the same hosts; declared before the hosts so
  // it outlives them.
  core::ProtocolObserverFanout proto_fanout_;
  std::unique_ptr<InvariantMonitor> monitor_;

  std::vector<std::unique_ptr<core::BroadcastHost>> paper_hosts_;
  std::vector<std::unique_ptr<core::OrderedDeliveryAdapter>> ordered_;
  std::unique_ptr<core::BasicSource> basic_source_;
  std::vector<std::unique_ptr<core::BasicReceiver>> basic_receivers_;
  std::vector<std::unique_ptr<core::GossipNode>> gossip_nodes_;

  util::Seq last_seq_{0};
  // Stream broadcasts scheduled but not yet generated; all_delivered() is
  // false while any are outstanding (otherwise a poll before the stream
  // starts would report vacuous success).
  int pending_stream_broadcasts_{0};

  [[nodiscard]] std::string make_body() const;
};

}  // namespace rbcast::harness
