// E1 — the Section 5 cost claim.
//
// "With the cluster tree arrangement we need only k-1 inter-cluster
//  transmissions, where k is the number of clusters, to broadcast one data
//  message. Clearly, this is optimal. In the basic algorithm, a data
//  message from the source is sent separately to each host. That would
//  require at least k-1 inter-cluster transmissions, and probably more if
//  there is more than one host per cluster."
//
// We sweep k (clusters) x m (hosts per cluster) on a failure-free WAN and
// count inter-cluster host-to-host transmissions of the data family per
// broadcast message. Expected: the cluster-tree protocol sits at ~k-1
// regardless of m; the basic algorithm sits at m*(k-1).
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Row {
  int k;
  int m;
  double tree_cost;
  double basic_cost;
};

double run_one(int k, int m, harness::ProtocolKind kind) {
  topo::ClusteredWanOptions wan;
  wan.clusters = k;
  wan.hosts_per_cluster = m;
  wan.shape = topo::TrunkShape::kRing;
  const auto built = make_clustered_wan(wan);

  harness::ScenarioOptions options;
  options.protocol_kind = kind;
  options.protocol = core::Config::for_size(built.topology.host_count());
  options.seed = 1;

  harness::Experiment e(built.topology, options);
  warm_up(e, sim::seconds(30 + 2 * k * m));

  constexpr int kMessages = 40;
  stream_and_finish(e, kMessages, sim::milliseconds(500));
  return static_cast<double>(e.metrics().intercluster_data_sends()) /
         kMessages;
}

void run() {
  print_header(
      "E1 bench_cost",
      "Inter-cluster host-to-host data transmissions per broadcast "
      "message\n(paper: cluster tree = k-1, optimal; basic >= k-1, "
      "more with >1 host/cluster;\n gossip [Deme87] included as a "
      "cluster-oblivious epidemic reference)");

  util::Table table({"clusters k", "hosts/cluster m", "optimal (k-1)",
                     "cluster tree", "basic", "gossip"});
  for (int k : {2, 4, 6, 8, 10}) {
    for (int m : {1, 2, 4}) {
      const double tree = run_one(k, m, harness::ProtocolKind::kPaper);
      const double basic = run_one(k, m, harness::ProtocolKind::kBasic);
      const double gossip = run_one(k, m, harness::ProtocolKind::kGossip);
      table.row()
          .cell(k)
          .cell(m)
          .cell(k - 1)
          .cell(tree, 2)
          .cell(basic, 2)
          .cell(gossip, 2);
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
