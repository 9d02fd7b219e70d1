// E16 — the protocol on its native habitat (extension).
//
// The paper's opening example is the ARPANET: nonprogrammable IMPs,
// 56 kbit/s trunks, campus LANs growing at the big sites. This bench runs
// all three protocols on a stylized c. 1980 ARPANET map (20 sites, 27
// trunks, 18 hosts, LANs at MIT/BBN/SRI/UCLA/ISI) with the source at MIT,
// and reports the paper's headline metrics side by side.
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Row {
  double intercluster_per_msg;
  double mean_delay;
  double p95_delay;
  double source_imp_backlog;
  double completion;
};

Row run_one(harness::ProtocolKind kind) {
  const topo::Arpanet net = topo::make_arpanet();
  const HostId source = net.hosts_at.at("MIT").front();
  const ServerId source_imp = net.topology.host(source).server;

  harness::ScenarioOptions options;
  options.protocol_kind = kind;
  options.protocol = core::Config::for_size(net.topology.host_count());
  options.gossip.gossip_period = sim::seconds(1);
  options.gossip.fanout = 2;
  options.source = source;
  options.seed = 17;

  harness::Experiment e(net.topology, options);
  warm_up(e, sim::seconds(45));

  constexpr int kMessages = 40;
  const double completion =
      stream_and_finish(e, kMessages, sim::milliseconds(500));
  const auto latency = e.metrics().all_latencies();
  return Row{
      static_cast<double>(e.metrics().intercluster_data_sends()) / kMessages,
      latency.mean(), latency.quantile(0.95),
      e.metrics().max_queue_backlog_seconds(source_imp), completion};
}

void run() {
  print_header(
      "E16 bench_arpanet",
      "All three protocols on a stylized c.1980 ARPANET (20 sites, 27 "
      "trunks at 56 kbit/s,\n 18 hosts, campus LANs at MIT/BBN/SRI/UCLA/ISI; "
      "source at MIT; k = 12 clusters,\n so the inter-cluster optimum is "
      "k-1 = 11)");

  util::Table table({"protocol", "inter-cluster data/msg", "mean delay s",
                     "p95 delay s", "MIT IMP backlog s", "completion s"});
  struct Entry {
    const char* name;
    harness::ProtocolKind kind;
  };
  for (const Entry& entry :
       {Entry{"cluster tree (paper)", harness::ProtocolKind::kPaper},
        Entry{"basic", harness::ProtocolKind::kBasic},
        Entry{"gossip", harness::ProtocolKind::kGossip}}) {
    const Row row = run_one(entry.kind);
    table.row()
        .cell(entry.name)
        .cell(row.intercluster_per_msg, 2)
        .cell(row.mean_delay, 3)
        .cell(row.p95_delay, 3)
        .cell(row.source_imp_backlog, 3)
        .cell(row.completion, 1);
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::run();
  return 0;
}
