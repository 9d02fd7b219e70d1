// E3 — the Section 5 recovery-locality claim.
//
// "When a host misses a message ..., the message is redelivered either by
//  one of its cluster neighbors or by a host from the parent cluster,
//  which tends to be one of the 'closest' clusters ... In the basic
//  algorithm, on the other hand, the source itself would always have to
//  enact a redelivery, which, in general, is costlier."
//
// Lossy links; we measure how much of the redelivery traffic crosses
// cluster boundaries. For the tree protocol, redeliveries are gap fills —
// mostly intra-cluster. For the basic algorithm, every redelivery is a
// source retransmission; any destination outside the source's cluster
// costs an expensive transmission again.
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Row {
  double redeliveries;            // redelivery transmissions per message
  double intercluster_fraction;   // share of them crossing clusters
  double completion_seconds;      // stream completion time
};

Row run_one(double trunk_loss, harness::ProtocolKind kind) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 3;
  wan.shape = topo::TrunkShape::kRing;
  wan.expensive.loss_probability = trunk_loss;
  wan.cheap.loss_probability = trunk_loss / 5.0;
  const auto built = make_clustered_wan(wan);

  harness::ScenarioOptions options;
  options.protocol_kind = kind;
  options.protocol = core::Config::for_size(built.topology.host_count());
  options.seed = 3;

  harness::Experiment e(built.topology, options);
  warm_up(e);

  constexpr int kMessages = 40;
  const double completion = stream_and_finish(e, kMessages,
                                              sim::milliseconds(500));

  const auto& m = e.metrics();
  double redeliveries = 0;
  double intercluster = 0;
  if (kind == harness::ProtocolKind::kPaper) {
    redeliveries = static_cast<double>(m.counter("send.gapfill"));
    intercluster = static_cast<double>(m.counter("send.intercluster.gapfill"));
  } else {
    redeliveries = static_cast<double>(m.counter("send.data_retx"));
    intercluster =
        static_cast<double>(m.counter("send.intercluster.data_retx"));
  }
  return Row{redeliveries / kMessages,
             redeliveries > 0 ? intercluster / redeliveries : 0.0,
             completion};
}

void run() {
  print_header(
      "E3 bench_recovery",
      "Redelivery traffic under loss (3 clusters x 3 hosts, 40 messages)\n"
      "(paper: tree redeliveries come from cluster neighbors / the parent\n"
      " cluster; basic redeliveries always come from the source)");

  util::Table table({"trunk loss", "protocol", "redeliveries/msg",
                     "inter-cluster share", "completion s"});
  for (double loss : {0.01, 0.05, 0.10, 0.20}) {
    for (auto kind :
         {harness::ProtocolKind::kPaper, harness::ProtocolKind::kBasic}) {
      const bool tree = kind == harness::ProtocolKind::kPaper;
      const Row r = run_one(loss, kind);
      table.row()
          .cell(loss, 2)
          .cell(tree ? "tree" : "basic")
          .cell(r.redeliveries, 2)
          .cell(r.intercluster_fraction, 2)
          .cell(r.completion_seconds, 1);
    }
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::run();
  return 0;
}
