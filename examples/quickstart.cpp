// Quickstart: reliable broadcast over a small WAN in ~40 lines of client
// code.
//
// Builds two clusters of three hosts joined by an expensive trunk, runs
// the paper's protocol, broadcasts ten messages from host 0 and shows that
// every host received all of them exactly once, plus the host parent graph
// the attachment procedure settled on.
//
//   $ ./quickstart
#include <iostream>
#include <sstream>

#include "rbcast.h"

using namespace rbcast;

int main() {
  // 1. A topology: 2 clusters x 3 hosts, cheap LANs inside, one expensive
  //    long-haul trunk between them.
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 3;
  const topo::Wan built = make_clustered_wan(wan);
  std::cout << "network: " << built.topology.describe() << "\n\n";

  // 2. An experiment: simulator + network + one protocol host per host.
  //    Host 0 is the broadcast source.
  harness::ScenarioOptions options;
  options.source = HostId{0};
  options.seed = 42;
  harness::Experiment experiment(built.topology, options);
  experiment.start();

  // 3. Broadcast a stream of ten messages, half a second apart.
  experiment.broadcast_stream(10, sim::milliseconds(500), sim::seconds(1));

  // 4. Run virtual time until every host holds every message, then give
  //    the attachment procedure a moment to consolidate cluster leaders.
  const sim::TimePoint done =
      experiment.run_until_delivered(sim::seconds(120));
  std::cout << "stream of 10 messages complete everywhere at t = "
            << sim::to_seconds(done) << " s\n\n";
  experiment.run_for(sim::seconds(30));

  // 5. Inspect the result.
  util::Table table({"host", "parent", "INFO set", "delivered"});
  for (HostId h : experiment.topology().host_ids()) {
    const auto& host = experiment.host(h);
    std::ostringstream hs;
    std::ostringstream ps;
    hs << h;
    ps << host.parent();
    table.row()
        .cell(hs.str())
        .cell(ps.str())
        .cell(host.info().to_string())
        .cell(host.counters().deliveries);
  }
  table.print(std::cout);

  const auto report = experiment.convergence();
  std::cout << "\nparent graph is a tree rooted at the source: "
            << (report.tree_rooted_at_source ? "yes" : "no")
            << "\ninduces the cluster tree (one leader per cluster): "
            << (report.induces_cluster_tree ? "yes" : "no") << "\n";

  // Cost check, Section 5: broadcast across k=2 clusters needs k-1 = 1
  // inter-cluster transmission per message.
  std::cout << "inter-cluster data transmissions for 10+1 messages: "
            << experiment.metrics().intercluster_data_sends() << "\n";
  return experiment.all_delivered() ? 0 : 1;
}
