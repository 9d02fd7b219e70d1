// E11 — the Section 6 cluster-knowledge discussion.
//
// "even if such [dynamic] information is unavailable, but instead there is
//  a static knowledge of clusters, the latter can be used in the
//  algorithm, albeit with less satisfying performance results.
//  Furthermore, if no cluster information at all is available, the
//  algorithm still can be used, with the assumption that every host is in
//  a separate cluster by itself."
//
// Same WAN, same stream, three knowledge modes. Expected: dynamic and
// static track the k-1 inter-cluster optimum; "none" treats every host as
// its own cluster, so the tree spans hosts rather than clusters and the
// expensive-transmission count rises toward n-1.
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Row {
  double intercluster_per_msg;
  double mean_delay_s;
  double control_per_s;
};

Row run_one(core::Config::ClusterKnowledge mode) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 4;
  wan.shape = topo::TrunkShape::kRing;
  const auto built = make_clustered_wan(wan);

  harness::ScenarioOptions options;
  options.protocol = core::Config::for_size(built.topology.host_count());
  options.protocol.cluster_knowledge = mode;
  options.seed = 11;

  harness::Experiment e(built.topology, options);
  warm_up(e, sim::seconds(40));

  constexpr int kMessages = 40;
  constexpr double kWindow = 120.0;
  const sim::TimePoint t0 = e.simulator().now();
  e.broadcast_stream(kMessages, sim::seconds(1), t0 + sim::seconds(1));
  e.run_until(t0 + sim::from_seconds(kWindow));

  const auto& m = e.metrics();
  return Row{
      static_cast<double>(m.intercluster_data_sends()) / kMessages,
      m.all_latencies().mean(), control_sends(m) / kWindow};
}

void run() {
  print_header(
      "E11 bench_cluster_knowledge",
      "Cluster-knowledge modes on a 3x4 WAN (k-1 = 2 optimal, n-1 = 11 "
      "worst case)\n(paper: static knowledge works with less satisfying "
      "results; no knowledge\n degenerates to per-host 'clusters' yet still "
      "broadcasts reliably)");

  util::Table table({"cluster knowledge", "inter-cluster data/msg",
                     "mean delay s", "control sends/s"});
  const char* names[] = {"dynamic (cost bit)", "static (fixed at start)",
                         "none (every host alone)"};
  const core::Config::ClusterKnowledge modes[] = {
      core::Config::ClusterKnowledge::kDynamic,
      core::Config::ClusterKnowledge::kStatic,
      core::Config::ClusterKnowledge::kNone};
  for (int i = 0; i < 3; ++i) {
    const Row row = run_one(modes[i]);
    table.row()
        .cell(names[i])
        .cell(row.intercluster_per_msg, 2)
        .cell(row.mean_delay_s, 3)
        .cell(row.control_per_s, 1);
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::run();
  return 0;
}
