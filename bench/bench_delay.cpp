// E2 — the Section 5 delay claim.
//
// "As far as the delay characteristics, our algorithm appears to be
//  comparable with the basic one. ... the tree that is dynamically
//  maintained by it tends to provide the shortest paths from the source to
//  all other hosts."
//
// Same failure-free sweep as E1; we report mean and p95 first-delivery
// latency. Expected shape: comparable delays at small scale; at larger
// host counts the basic algorithm's serial unicasting through the source's
// single access pipe inflates its delays (the congestion effect, E5),
// while the tree distributes forwarding.
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Delays {
  double mean;
  double p95;
};

Delays run_one(int k, int m, harness::ProtocolKind kind) {
  topo::ClusteredWanOptions wan;
  wan.clusters = k;
  wan.hosts_per_cluster = m;
  wan.shape = topo::TrunkShape::kRing;
  const auto built = make_clustered_wan(wan);

  harness::ScenarioOptions options;
  options.protocol_kind = kind;
  options.protocol = core::Config::for_size(built.topology.host_count());
  options.seed = 2;

  harness::Experiment e(built.topology, options);
  warm_up(e, sim::seconds(30 + 2 * k * m));
  stream_and_finish(e, 40, sim::milliseconds(500));

  const auto latencies = e.metrics().all_latencies();
  return Delays{latencies.mean(), latencies.quantile(0.95)};
}

void run() {
  print_header("E2 bench_delay",
               "First-delivery latency (seconds), failure-free WAN\n(paper: "
               "tree delay comparable to basic; tree does not depend on "
               "network routing)");

  util::Table table({"clusters k", "hosts/cluster m", "tree mean", "tree p95",
                     "basic mean", "basic p95", "gossip mean", "gossip p95"});
  for (int k : {2, 4, 8}) {
    for (int m : {1, 4, 8}) {
      const Delays tree = run_one(k, m, harness::ProtocolKind::kPaper);
      const Delays basic = run_one(k, m, harness::ProtocolKind::kBasic);
      const Delays gossip = run_one(k, m, harness::ProtocolKind::kGossip);
      table.row()
          .cell(k)
          .cell(m)
          .cell(tree.mean, 3)
          .cell(tree.p95, 3)
          .cell(basic.mean, 3)
          .cell(basic.p95, 3)
          .cell(gossip.mean, 3)
          .cell(gossip.p95, 3);
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
