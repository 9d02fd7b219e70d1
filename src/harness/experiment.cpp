#include "harness/experiment.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::harness {

Experiment::Experiment(topo::Topology topology, ScenarioOptions options)
    : topology_(std::move(topology)),
      options_(options),
      rngs_(options.seed) {
  RBCAST_CHECK_ARG(topology_.host_count() >= 1, "topology has no hosts");
  RBCAST_CHECK_ARG(
      options_.source.valid() &&
          static_cast<std::size_t>(options_.source.value) <
              topology_.host_count(),
      "source is not a host of the topology");
  RBCAST_CHECK_ARG(!options_.monitor_invariants ||
                       options_.protocol_kind == ProtocolKind::kPaper,
                   "monitor_invariants applies to the paper protocol");

  network_ = std::make_unique<net::Network>(simulator_, topology_,
                                            options_.net, rngs_);
  // Config::batch_flush_delay > 0 turns on transport-level coalescing for
  // every protocol kind, baselines included; the default (0) keeps
  // SimTransport on its zero-overhead forwarding path, which the
  // determinism digests are pinned under.
  transport_ = std::make_unique<transport::SimTransport>(
      simulator_, *network_,
      transport::CoalescerConfig{options_.protocol.batch_flush_delay,
                                 options_.protocol.batch_max_bytes});
  transport_->register_metrics(registry_);
  if (!options_.byzantine.empty()) {
    RBCAST_CHECK_ARG(options_.protocol_kind == ProtocolKind::kPaper,
                     "byzantine schedule applies to the paper protocol");
    byzantine_transport_ = std::make_unique<ByzantineTransport>(
        *transport_, options_.byzantine, options_.source);
  }
  metrics_ = std::make_unique<trace::Metrics>(simulator_, *network_);
  metrics_->attach();
  events_ = std::make_unique<trace::EventLog>(simulator_);
  faults_ = std::make_unique<net::FaultPlan>(simulator_, *network_);

  const auto all_hosts = topology_.host_ids();

  if (options_.protocol_kind == ProtocolKind::kPaper) {
    // Static cluster knowledge mode seeds CLUSTER_i with ground truth.
    const auto ground_clusters = network_->clusters();

    paper_hosts_.resize(all_hosts.size());
    if (options_.ordered_delivery) ordered_.resize(all_hosts.size());
    for (HostId h : all_hosts) {
      core::BroadcastHost::AppDeliverFn deliver =
          [this, h](util::Seq seq, std::string_view) {
            metrics_->record_delivery(h, seq);
          };
      if (options_.ordered_delivery && h != options_.source) {
        // Metrics then record the moment a message becomes deliverable in
        // order, not its first receipt.
        ordered_[static_cast<std::size_t>(h.value)] =
            std::make_unique<core::OrderedDeliveryAdapter>(
                std::move(deliver));
        deliver = [this, h](util::Seq seq, std::string_view body) {
          ordered_[static_cast<std::size_t>(h.value)]->on_message(seq, body);
        };
      }
      if (options_.monitor_invariants) {
        // The monitor observes first receipts (what the protocol promises),
        // upstream of any ordering adapter. monitor_ is created after the
        // hosts; deliveries only happen once the simulation runs.
        deliver = [this, h, inner = std::move(deliver)](
                      util::Seq seq, std::string_view body) {
          if (monitor_ != nullptr) monitor_->on_app_delivery(h, seq, body);
          inner(seq, body);
        };
      }
      // Byzantine hosts attach through the mutating decorator; with no
      // schedule the wrapper does not exist and wiring is unchanged.
      transport::Transport& host_transport =
          byzantine_transport_ != nullptr
              ? static_cast<transport::Transport&>(*byzantine_transport_)
              : *transport_;
      auto node = std::make_unique<core::BroadcastHost>(
          host_transport, h, options_.source, all_hosts, options_.protocol,
          rngs_.stream("host.jitter", h.value), std::move(deliver));
      if (options_.protocol.cluster_knowledge ==
          core::Config::ClusterKnowledge::kStatic) {
        for (const auto& cluster : ground_clusters) {
          if (std::find(cluster.begin(), cluster.end(), h) != cluster.end()) {
            node->seed_cluster(cluster);
            break;
          }
        }
      }
      node->set_observer(events_.get());
      paper_hosts_[static_cast<std::size_t>(h.value)] = std::move(node);
    }
    if (options_.monitor_invariants) {
      monitor_ = std::make_unique<InvariantMonitor>(
          simulator_, host_views(), *network_, options_.source,
          options_.monitor);
      proto_fanout_.add(events_.get());
      proto_fanout_.add(monitor_.get());
      for (auto& host : paper_hosts_) host->set_observer(&proto_fanout_);
      install_observers();
    }
  } else if (options_.protocol_kind == ProtocolKind::kGossip) {
    gossip_nodes_.resize(all_hosts.size());
    for (HostId h : all_hosts) {
      auto deliver = [this, h](util::Seq seq, const std::string&) {
        metrics_->record_delivery(h, seq);
      };
      gossip_nodes_[static_cast<std::size_t>(h.value)] =
          std::make_unique<core::GossipNode>(
              *transport_, h, options_.source, all_hosts, options_.gossip,
              rngs_.stream("host.jitter", h.value), std::move(deliver));
    }
  } else {
    basic_receivers_.resize(all_hosts.size());
    for (HostId h : all_hosts) {
      if (h == options_.source) {
        basic_source_ = std::make_unique<core::BasicSource>(
            *transport_, h, all_hosts, options_.basic,
            rngs_.stream("host.jitter", h.value));
      } else {
        auto deliver = [this, h](util::Seq seq, const std::string&) {
          metrics_->record_delivery(h, seq);
        };
        basic_receivers_[static_cast<std::size_t>(h.value)] =
            std::make_unique<core::BasicReceiver>(*transport_, h,
                                                  std::move(deliver));
      }
    }
  }
}

Experiment::~Experiment() = default;

const char* Experiment::protocol_name() const {
  switch (options_.protocol_kind) {
    case ProtocolKind::kPaper:
      return "paper";
    case ProtocolKind::kBasic:
      return "basic";
    case ProtocolKind::kGossip:
      return "gossip";
  }
  return "?";
}

trace::TraceRecord Experiment::manifest() const {
  return trace::run_manifest(options_.seed, topology_.describe(),
                             protocol_name(),
                             trace::describe_config(options_.protocol));
}

void Experiment::install_observers() {
  if (sink_ == nullptr && monitor_ == nullptr) {
    network_->set_observer(metrics_.get());
    return;
  }
  observer_fanout_ = net::NetObserverFanout{};
  observer_fanout_.add(metrics_.get());
  observer_fanout_.add(net_tap_.get());
  observer_fanout_.add(monitor_.get());
  network_->set_observer(&observer_fanout_);
}

void Experiment::set_trace_sink(trace::TraceSink* sink) {
  sink_ = sink;
  events_->set_sink(sink);
  net_tap_ = sink != nullptr
                 ? std::make_unique<trace::NetTap>(simulator_, *sink)
                 : nullptr;
  install_observers();
  if (sink_ != nullptr) sink_->record(manifest());
}

void Experiment::enable_metric_sampling(sim::Duration period) {
  RBCAST_CHECK_ARG(sink_ != nullptr,
                   "enable_metric_sampling needs a trace sink installed");
  trace::MetricSampler::TreeShapeFn shape_fn;
  if (options_.protocol_kind == ProtocolKind::kPaper) {
    shape_fn = [this] { return convergence(); };
  }
  sampler_ = std::make_unique<trace::MetricSampler>(
      simulator_, *metrics_, *sink_, period, std::move(shape_fn));
  sampler_->set_registry(&registry_);
  sampler_->start();
}

void Experiment::start() {
  if (options_.protocol_kind == ProtocolKind::kPaper) {
    for (auto& host : paper_hosts_) host->start();
    if (monitor_ != nullptr) monitor_->start();
  } else if (options_.protocol_kind == ProtocolKind::kGossip) {
    for (auto& node : gossip_nodes_) node->start();
  } else {
    basic_source_->start();
  }
}

std::string Experiment::make_body() const {
  return std::string(options_.protocol.data_bytes, 'x');
}

util::Seq Experiment::broadcast(std::string body) {
  if (body.empty()) body = make_body();
  util::Seq seq = 0;
  if (options_.protocol_kind == ProtocolKind::kPaper) {
    if (monitor_ != nullptr) {
      // The monitor needs the body as I2/I3 ground truth. Registration
      // happens right after broadcast() returns (the seq is assigned
      // inside), before any further simulator event can observe the gap.
      std::string copy = body;
      seq = host(options_.source).broadcast(std::move(body));
      monitor_->on_source_broadcast(seq, copy);
    } else {
      seq = host(options_.source).broadcast(std::move(body));
    }
  } else if (options_.protocol_kind == ProtocolKind::kGossip) {
    seq = gossip_node(options_.source).broadcast(std::move(body));
  } else {
    seq = basic_source_->broadcast(std::move(body));
  }
  last_seq_ = std::max(last_seq_, seq);
  metrics_->record_broadcast(seq);
  metrics_->record_delivery(options_.source, seq);
  return seq;
}

void Experiment::broadcast_stream(int count, sim::Duration interval,
                                  sim::TimePoint first_at) {
  RBCAST_CHECK_ARG(count >= 0 && interval >= 0, "bad stream parameters");
  for (int k = 0; k < count; ++k) {
    schedule_broadcast_at(first_at + k * interval);
  }
}

void Experiment::schedule_broadcast_at(sim::TimePoint t) {
  ++pending_stream_broadcasts_;
  simulator_.at(t, [this] {
    --pending_stream_broadcasts_;
    broadcast();
  });
}

bool Experiment::all_delivered() const {
  if (pending_stream_broadcasts_ > 0) return false;
  if (last_seq_ == 0) return true;
  if (options_.protocol_kind == ProtocolKind::kPaper) {
    for (const auto& host : paper_hosts_) {
      const auto& info = host->info();
      if (info.count() < last_seq_ || info.max_seq() < last_seq_) return false;
    }
    return true;
  }
  if (options_.protocol_kind == ProtocolKind::kGossip) {
    for (const auto& node : gossip_nodes_) {
      const auto& info = node->info();
      if (info.count() < last_seq_ || info.max_seq() < last_seq_) return false;
    }
    return true;
  }
  for (std::size_t i = 0; i < basic_receivers_.size(); ++i) {
    const auto& receiver = basic_receivers_[i];
    if (receiver == nullptr) continue;  // the source slot
    const auto& got = receiver->received();
    if (got.count() < last_seq_ || got.max_seq() < last_seq_) return false;
  }
  return true;
}

sim::TimePoint Experiment::run_until_delivered(sim::TimePoint deadline,
                                               sim::Duration poll) {
  RBCAST_CHECK_ARG(poll > 0, "poll period must be positive");
  while (simulator_.now() < deadline) {
    if (all_delivered()) return simulator_.now();
    simulator_.run_until(
        std::min<sim::TimePoint>(deadline, simulator_.now() + poll));
  }
  return deadline;
}

trace::ConvergenceReport Experiment::convergence() const {
  RBCAST_ASSERT_MSG(options_.protocol_kind == ProtocolKind::kPaper,
                    "convergence() applies to the paper protocol");
  return trace::analyze_convergence(host_views(), *network_, options_.source);
}

core::BroadcastHost& Experiment::host(HostId id) {
  RBCAST_ASSERT_MSG(options_.protocol_kind == ProtocolKind::kPaper,
                    "host() applies to the paper protocol");
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < paper_hosts_.size());
  return *paper_hosts_[static_cast<std::size_t>(id.value)];
}

std::vector<const core::BroadcastHost*> Experiment::host_views() const {
  std::vector<const core::BroadcastHost*> out;
  out.reserve(paper_hosts_.size());
  for (const auto& host : paper_hosts_) out.push_back(host.get());
  return out;
}

core::OrderedDeliveryAdapter& Experiment::ordered_adapter(HostId id) {
  RBCAST_ASSERT_MSG(options_.ordered_delivery,
                    "ordered_delivery was not enabled");
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < ordered_.size() &&
                ordered_[static_cast<std::size_t>(id.value)] != nullptr);
  return *ordered_[static_cast<std::size_t>(id.value)];
}

core::BasicSource& Experiment::basic_source() {
  RBCAST_ASSERT_MSG(options_.protocol_kind == ProtocolKind::kBasic,
                    "basic_source() applies to the baseline");
  return *basic_source_;
}

core::GossipNode& Experiment::gossip_node(HostId id) {
  RBCAST_ASSERT_MSG(options_.protocol_kind == ProtocolKind::kGossip,
                    "gossip_node() applies to the gossip baseline");
  RBCAST_ASSERT(id.valid() &&
                static_cast<std::size_t>(id.value) < gossip_nodes_.size());
  return *gossip_nodes_[static_cast<std::size_t>(id.value)];
}

}  // namespace rbcast::harness
