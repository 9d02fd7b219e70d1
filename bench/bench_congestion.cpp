// E5 — the Section 5 source-congestion claim, plus the heavy-traffic
// data-plane experiment (E5b).
//
// "the basic algorithm can cause congestion of the source host's server
//  since data messages go out separately to every host. Our algorithm does
//  not present such a problem because responsibilities for disseminating
//  data messages are distributed among all hosts."
//
// Part 1 (burst): a WAN of 4 clusters with growing cluster sizes; a burst
// of back-to-back broadcasts. We report the worst serialization backlog
// observed on the outgoing queues of the source's server (including the
// source's access pipe) and, for contrast, the worst backlog anywhere
// else.
//
// Part 2 (overload): sustained arrivals faster than the coalescer's flush
// deadline, held over a star WAN whose trunks are the bottleneck. Every
// datagram is charged a fixed per-packet framing overhead
// (NetConfig::per_packet_overhead_bytes, the UDP/IP headers) in BOTH
// modes; batching amortizes that overhead across the frames of a
// version-2 container, so the batched run pushes strictly more delivered
// messages through the same trunks with no worse tail latency. This is
// the acceptance experiment for the transport::Coalescer data plane.
#include "support/common.h"

#include "harness/workload.h"

namespace rbcast::bench {
namespace {

struct Row {
  double source_backlog_s;  // max backlog at the source's server
  double other_backlog_s;   // max backlog at any other server
  double mean_delay_s;
};

Row run_one(int hosts_per_cluster, harness::ProtocolKind kind) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 4;
  wan.hosts_per_cluster = hosts_per_cluster;
  wan.shape = topo::TrunkShape::kStar;
  const auto built = make_clustered_wan(wan);
  const ServerId source_server = built.topology.host(HostId{0}).server;

  harness::ScenarioOptions options;
  options.protocol_kind = kind;
  options.protocol = core::Config::for_size(built.topology.host_count());
  options.protocol.data_bytes = 1024;  // meaty updates stress the queues
  options.seed = 5;

  harness::Experiment e(built.topology, options);
  warm_up(e, sim::seconds(30 + 8 * hosts_per_cluster));

  // A burst: 20 messages with no spacing at all.
  stream_and_finish(e, 20, sim::microseconds(0));

  const auto& m = e.metrics();
  double source_backlog = m.max_queue_backlog_seconds(source_server);
  double other = 0.0;
  for (const auto& server : e.topology().servers()) {
    if (server.id == source_server) continue;
    other = std::max(other, m.max_queue_backlog_seconds(server.id));
  }
  return Row{source_backlog, other, m.all_latencies().mean()};
}

// --- Part 2: sustained overload, batched vs unbatched data plane ---------

struct OverloadRow {
  double throughput;        // first deliveries per virtual second, all hosts
  double p99_s;             // 99th-percentile first-delivery latency
  double frames_per_dgram;  // coalescer amortization (1.0 when unbatched)
};

OverloadRow run_overload(sim::Duration interval, bool batched) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 3;
  wan.shape = topo::TrunkShape::kStar;
  const auto built = make_clustered_wan(wan);

  harness::ScenarioOptions options;
  options.protocol = core::Config::for_size(built.topology.host_count());
  // Small commutative updates: framing dominates the payload, which is the
  // regime where coalescing pays (a replicated-database hot-key stream).
  options.protocol.data_bytes = 16;
  if (batched) {
    options.protocol.batch_flush_delay = sim::milliseconds(5);
    options.protocol.batch_max_bytes = 1200;
  }
  // UDP/IP-style header charge per datagram — identical in both modes;
  // batching wins by sending fewer datagrams, not by cheating the charge.
  options.net.per_packet_overhead_bytes = 28;
  options.seed = 8;

  harness::Experiment e(built.topology, options);
  warm_up(e);

  harness::WorkloadOptions w;
  w.process = harness::ArrivalProcess::kSustained;
  w.interval = interval;
  w.duration = sim::seconds(60);
  w.first_at = e.simulator().now() + sim::milliseconds(1);
  harness::schedule_workload(e, w, e.rngs().stream("workload"));

  const sim::TimePoint begin = e.simulator().now();
  // Fixed horizon: the offered load exceeds what the trunks carry
  // unbatched, so the run that wastes less capacity on per-datagram
  // framing has delivered strictly more by the same deadline.
  const sim::Duration horizon = w.duration + sim::seconds(10);
  e.run_until(begin + horizon);

  const auto lat = e.metrics().all_latencies();
  const auto stats = e.transport().coalescer_stats();
  const double amortization =
      stats.batches_flushed > 0
          ? static_cast<double>(stats.frames_enqueued) /
                static_cast<double>(stats.batches_flushed)
          : 1.0;
  return OverloadRow{
      static_cast<double>(lat.count()) / sim::to_seconds(horizon),
      lat.quantile(0.99), amortization};
}

void run(bool json) {
  std::ostringstream rows;
  bool first = true;

  if (!json) {
    print_header(
        "E5 bench_congestion",
        "Worst outbound queue backlog (s) during a 20-message burst, 4-cluster "
        "star WAN\n(paper: basic congests the source's server; the tree "
        "distributes dissemination)");
  }
  util::Table table({"hosts/cluster", "total hosts", "protocol",
                     "source srv backlog", "worst other srv", "mean delay"});
  for (int m : {2, 4, 8, 16}) {
    for (auto kind :
         {harness::ProtocolKind::kPaper, harness::ProtocolKind::kBasic}) {
      const bool tree = kind == harness::ProtocolKind::kPaper;
      const Row row = run_one(m, kind);
      table.row()
          .cell(m)
          .cell(4 * m)
          .cell(tree ? "tree" : "basic")
          .cell(row.source_backlog_s, 3)
          .cell(row.other_backlog_s, 3)
          .cell(row.mean_delay_s, 3);
      std::ostringstream name;
      name << "congestion/hosts=" << 4 * m << "/" << (tree ? "tree" : "basic");
      // Offset by one so a zero-backlog cell cannot zero a baseline entry
      // (ratio gates cannot divide by zero).
      emit_json_row(rows, first, name.str() + "/source_backlog",
                    1.0 + row.source_backlog_s, "s");
      emit_json_row(rows, first, name.str() + "/mean_delay",
                    row.mean_delay_s, "s");
    }
  }
  if (!json) {
    table.print(std::cout);
    print_header(
        "E5b bench_congestion overload",
        "Sustained overload (60 s of arrivals + 10 s drain, 3-cluster star "
        "WAN,\n16-byte updates, 28-byte per-datagram framing in both modes):\n"
        "batching amortizes the framing, so the same trunks deliver more");
  }
  util::Table overload_table({"arrival interval ms", "data plane",
                              "delivered msg/s", "p99 delay", "frames/dgram"});
  for (sim::Duration interval :
       {sim::milliseconds(4), sim::milliseconds(2)}) {
    for (bool batched : {false, true}) {
      const OverloadRow r = run_overload(interval, batched);
      overload_table.row()
          .cell(sim::to_seconds(interval) * 1e3, 0)
          .cell(batched ? "batched" : "unbatched")
          .cell(r.throughput, 1)
          .cell(r.p99_s, 3)
          .cell(r.frames_per_dgram, 2);
      std::ostringstream name;
      name << "overload/interval_ms=" << sim::to_seconds(interval) * 1e3
           << "/" << (batched ? "batched" : "unbatched");
      // Unit is nominal ("s" like every row): bench_compare.py only
      // understands time units and compares ratios, not dimensions.
      emit_json_row(rows, first, name.str() + "/throughput", r.throughput,
                    "s");
      emit_json_row(rows, first, name.str() + "/p99", r.p99_s, "s");
    }
  }
  if (json) {
    print_json(rows.str());
  } else {
    overload_table.print(std::cout);
  }
}

}  // namespace
}  // namespace rbcast::bench

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::string(argv[1]) == "--json";
  rbcast::bench::run(json);
  return 0;
}
