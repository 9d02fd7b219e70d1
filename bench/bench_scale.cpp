// E15 — scalability and workload-shape sweep (extension; the paper argues
// but never measures scale).
//
// Part 1: host-count sweep. The per-host control load and the delivery
// delay should grow mildly with system size (the tree distributes
// forwarding; control periods are tuned to system size exactly as
// Section 6 prescribes).
//
// Part 2: arrival-process sweep at a fixed mean rate. Bursty workloads
// stress the source's uplink; the cluster tree absorbs bursts noticeably
// better than a flat unicast fan-out would (compare E5).
#include "support/common.h"

namespace rbcast::bench {
namespace {

void sweep_scale() {
  std::cout << "\n--- host-count sweep (clusters x 4 hosts, ring) ---\n";
  util::Table table({"hosts", "completion s", "mean delay s", "p95 delay s",
                     "control sends/s/host", "tree depth"});
  for (int clusters : {2, 4, 8, 16, 24}) {
    const int hosts = clusters * 4;
    topo::ClusteredWanOptions wan;
    wan.clusters = clusters;
    wan.hosts_per_cluster = 4;
    wan.shape = topo::TrunkShape::kRing;
    const auto built = make_clustered_wan(wan);

    harness::ScenarioOptions options;
    options.protocol = core::Config::for_size(built.topology.host_count());
    options.seed = 15;

    harness::Experiment e(built.topology, options);
    warm_up(e, sim::seconds(30 + 2 * hosts));

    const sim::TimePoint t0 = e.simulator().now();
    const double completion =
        stream_and_finish(e, 40, sim::milliseconds(500));
    const double window =
        sim::to_seconds(e.simulator().now() - t0);

    const auto latency = e.metrics().all_latencies();
    table.row()
        .cell(hosts)
        .cell(completion, 1)
        .cell(latency.mean(), 3)
        .cell(latency.quantile(0.95), 3)
        .cell(control_sends(e.metrics()) / window / hosts, 2)
        .cell(static_cast<std::uint64_t>(e.convergence().depth));
  }
  table.print(std::cout);
}

void sweep_workload() {
  std::cout << "\n--- arrival-process sweep (4x4 WAN, 60 msgs, mean 0.5 "
               "s spacing) ---\n";
  util::Table table({"arrivals", "completion s", "mean delay s",
                     "p95 delay s", "max source backlog s"});
  for (auto process :
       {harness::ArrivalProcess::kUniform, harness::ArrivalProcess::kPoisson,
        harness::ArrivalProcess::kBursty}) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 4;
    wan.hosts_per_cluster = 4;
    const auto built = make_clustered_wan(wan);
    const ServerId source_server = built.topology.host(HostId{0}).server;

    harness::ScenarioOptions options;
    options.protocol = core::Config::for_size(built.topology.host_count());
    options.protocol.data_bytes = 1024;
    options.seed = 16;

    harness::Experiment e(built.topology, options);
    warm_up(e);

    harness::WorkloadOptions w;
    w.process = process;
    w.messages = 60;
    w.interval = process == harness::ArrivalProcess::kBursty
                     ? sim::milliseconds(2500)  // 5-msg bursts every 2.5 s
                     : sim::milliseconds(500);
    w.burst_size = 5;
    w.first_at = e.simulator().now() + sim::milliseconds(1);
    const sim::TimePoint t0 = e.simulator().now();
    schedule_workload(e, w, util::Rng(16));
    const sim::TimePoint done =
        e.run_until_delivered(t0 + sim::seconds(600));

    const auto latency = e.metrics().all_latencies();
    table.row()
        .cell(harness::to_string(process))
        .cell(sim::to_seconds(done - t0), 1)
        .cell(latency.mean(), 3)
        .cell(latency.quantile(0.95), 3)
        .cell(e.metrics().max_queue_backlog_seconds(source_server), 3);
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::print_header(
      "E15 bench_scale",
      "Scalability and workload-shape sweeps (extension beyond the paper's "
      "evaluation)");
  rbcast::bench::sweep_scale();
  rbcast::bench::sweep_workload();
  return 0;
}
