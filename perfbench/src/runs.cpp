#include "runs.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string_view>
#include <vector>

#include "core/broadcast_host.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "trace/event_log.h"
#include "trace/metrics.h"
#include "transport/sim_transport.h"
#include "util/metrics_registry.h"
#include "util/rng.h"

namespace perfbench {

namespace core = rbcast::core;
namespace harness = rbcast::harness;
namespace net = rbcast::net;
namespace sim = rbcast::sim;
namespace topo = rbcast::topo;
namespace trace = rbcast::trace;
namespace transport = rbcast::transport;
namespace util = rbcast::util;
using rbcast::HostId;
using util::Seq;

namespace {

using Clock = std::chrono::steady_clock;

// Completion checks on the simulator, as in Experiment::run_until_delivered.
constexpr util::Duration kPoll = util::seconds(1);

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Start of a measured phase: wall clock, process CPU time, allocations.
struct Meter {
  Clock::time_point wall{Clock::now()};
  double cpu{cpu_seconds()};
  std::uint64_t allocs{alloc_count()};

  void stop(RunResult& r) const {
    r.wall_s = seconds_since(wall);
    r.cpu_s = cpu_seconds() - cpu;
    r.allocs = alloc_count() - allocs;
  }
};

harness::ScenarioOptions scenario_options(const Inputs& in) {
  harness::ScenarioOptions options;
  options.protocol = in.protocol;
  options.source = kSource;
  options.seed = kProtocolSeed;
  return options;
}

// Census of a run from trace::Metrics' first-receipt record.
void census(const Inputs& in, const trace::Metrics& metrics,
            const trace::EventLog& events,
            const std::vector<const core::BroadcastHost*>& hosts,
            RunResult& r) {
  for (Seq seq = 1; seq <= static_cast<Seq>(in.messages); ++seq) {
    for (std::size_t h = 0; h < in.host_count(); ++h) {
      const HostId host{static_cast<HostId::value_type>(h)};
      if (host == kSource) continue;
      const double latency = metrics.delivery_latency(host, seq);
      if (latency < 0.0) continue;
      ++r.delivered;
      r.delays_s.add(latency);
    }
  }
  r.delivered_events = events.count(trace::EventType::kDelivered);
  r.digest = events.digest();
  r.net_counters = metrics.counters().all();
  for (const core::BroadcastHost* host : hosts) {
    r.duplicates_discarded += host->counters().duplicates_discarded;
  }
}

bool all_hold(const std::vector<const core::BroadcastHost*>& hosts, Seq last) {
  for (const core::BroadcastHost* host : hosts) {
    const auto& info = host->info();
    if (info.count() < last || info.max_seq() < last) return false;
  }
  return true;
}

// Simulator::run_until(t) through step(), one sim.step span per event. A
// sentinel event at t marks where the events due at or before t end; events
// due exactly at t but scheduled after the sentinel fire after it, so the
// sentinel is re-armed until it is the first event to fire. Sentinels only
// shift later insertion numbers, never the order of scenario events.
void step_until(sim::Simulator& simulator, sim::TimePoint t, Traced& tr) {
  for (;;) {
    bool reached = false;
    simulator.at(t, [&reached] { reached = true; });
    bool other_fired = false;
    while (!reached) {
      tr.counts.pending_peak =
          std::max(tr.counts.pending_peak, simulator.pending_events() - 1);
      {
        Tracer::Scope span(tr.tracer, Layer::kSimStep);
        simulator.step();
      }
      if (!reached) {
        ++tr.counts.sim_events;
        other_fired = true;
      }
    }
    if (!other_fired) return;
  }
}

}  // namespace

RunResult run_untraced(const Inputs& in, bool setup_only) {
  RunResult r;
  const Clock::time_point t0 = Clock::now();
  harness::Experiment e(topo::make_clustered_wan(in.wan).topology,
                        scenario_options(in));
  r.setup_s = seconds_since(t0);
  if (setup_only) return r;

  const Meter meter;
  e.start();
  int issued = 0;
  for (int k = 0; k < in.messages; ++k) {
    e.simulator().at(in.first_at + k * in.interval, [&e, &in, &issued, k] {
      e.broadcast(in.bodies[static_cast<std::size_t>(k)]);
      ++issued;
    });
  }
  while (e.simulator().now() < in.deadline) {
    if (issued == in.messages && e.all_delivered()) break;
    e.run_until(std::min(in.deadline, e.simulator().now() + kPoll));
  }
  meter.stop(r);

  census(in, e.metrics(), e.events(), e.host_views(), r);
  return r;
}

// harness::Experiment's paper-protocol wiring, rebuilt with the decorators
// in its seams (same construction order, same random streams).
RunResult run_traced(const Inputs& in, Traced tr) {
  RunResult r;
  const Clock::time_point t0 = Clock::now();
  const topo::Topology topology = topo::make_clustered_wan(in.wan).topology;
  const harness::ScenarioOptions options = scenario_options(in);
  const util::RngFactory rngs(options.seed);
  sim::Simulator simulator;
  util::MetricsRegistry registry;
  net::Network network(simulator, topology, options.net, rngs);
  transport::SimTransport sim_transport(
      simulator, network,
      transport::CoalescerConfig{options.protocol.batch_flush_delay,
                                 options.protocol.batch_max_bytes});
  sim_transport.register_metrics(registry);
  trace::Metrics metrics(simulator, network);
  TracingNetObserver net_observer(metrics, tr.tracer, tr.counts);
  network.set_observer(&net_observer);
  trace::EventLog events(simulator);
  TracingProtocolObserver protocol_observer(events, tr.tracer);
  TracingTransport host_transport(sim_transport, tr.tracer, tr.counts);

  const std::vector<HostId> all_hosts = topology.host_ids();
  std::vector<std::unique_ptr<core::BroadcastHost>> hosts;
  hosts.reserve(all_hosts.size());
  for (const HostId h : all_hosts) {
    core::BroadcastHost::AppDeliverFn deliver =
        [&tr, &in, &metrics, &r, h](Seq seq, std::string_view body) {
          Tracer::Scope span(tr.tracer, Layer::kHarnessApp);
          if (seq < 1 || seq > in.bodies.size() ||
              body != in.bodies[static_cast<std::size_t>(seq - 1)]) {
            ++r.bad_bodies;
          }
          metrics.record_delivery(h, seq);
        };
    hosts.push_back(std::make_unique<core::BroadcastHost>(
        host_transport, h, kSource, all_hosts, options.protocol,
        rngs.stream("host.jitter", h.value), std::move(deliver)));
    hosts.back()->set_observer(&protocol_observer);
  }
  std::vector<const core::BroadcastHost*> views;
  for (const auto& host : hosts) views.push_back(host.get());
  core::BroadcastHost& source =
      *hosts[static_cast<std::size_t>(kSource.value)];
  r.setup_s = seconds_since(t0);

  const Meter meter;
  for (auto& host : hosts) host->start();
  int issued = 0;
  for (int k = 0; k < in.messages; ++k) {
    simulator.at(in.first_at + k * in.interval, [&, k] {
      Tracer::Scope span(tr.tracer, Layer::kHarnessBroadcast);
      const Seq seq = source.broadcast(in.bodies[static_cast<std::size_t>(k)]);
      metrics.record_broadcast(seq);
      metrics.record_delivery(kSource, seq);
      ++issued;
    });
  }
  while (simulator.now() < in.deadline) {
    if (issued == in.messages && all_hold(views, static_cast<Seq>(issued))) {
      break;
    }
    step_until(simulator, std::min(in.deadline, simulator.now() + kPoll),
               tr);
  }
  meter.stop(r);

  census(in, metrics, events, views, r);
  return r;
}

}  // namespace perfbench
