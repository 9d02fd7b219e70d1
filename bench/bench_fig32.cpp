// E9 — Figure 3.2: the host parent graph induces the cluster tree, and the
// attachment procedure prefers the parent cluster that "receives broadcast
// messages ahead" of the alternatives.
//
// Topology: R (source) -> {C', C''} -> C, with every trunk on the C'' side
// 8x slower, so mid-stream the INFO sets order as R > C' > C'' (pipeline
// lag). While R is reachable it is legal - and delay-optimal - for every
// leader to attach directly into R, so the C'-versus-C'' choice is posed
// by partitioning R away mid-stream: C's leader must then choose between
// C' and C'', and the paper says it must pick the prompter C'. After the
// partition heals, R pulls ahead again and case II option (3) migrates C
// back toward R.
#include "support/common.h"

namespace rbcast::bench {
namespace {

// Cluster index (into fig.cluster_hosts) containing host `h`, or -1.
int cluster_of(const topo::Figure32& fig, HostId h) {
  for (std::size_t c = 0; c < fig.cluster_hosts.size(); ++c) {
    for (HostId member : fig.cluster_hosts[c]) {
      if (member == h) return static_cast<int>(c);
    }
  }
  return -1;
}

// C's current leader: the member of cluster C whose parent is outside C
// (or missing).
HostId leader_of_c(harness::Experiment& e, const topo::Figure32& fig) {
  for (HostId h : fig.cluster_hosts[3]) {
    const HostId p = e.host(h).parent();
    if (!p.valid() || cluster_of(fig, p) != 3) return h;
  }
  return kNoHost;
}

void run() {
  print_header(
      "E9 bench_fig32",
      "Figure 3.2: R -> {C', C''} -> C with the C'' side 8x slower\n"
      "(paper: C should hang off the cluster that receives messages ahead "
      "- C';\n the parent graph must keep inducing the cluster tree "
      "throughout)");

  auto fig = topo::make_figure_3_2();
  auto slow = topo::LinkParams::expensive_defaults();
  // Laggy but sufficient: the slow side must still have the capacity to
  // carry the steady stream (4 msg/s x ~290 B), or it would congestion-
  // collapse rather than merely lag.
  slow.propagation_delay *= 8;
  slow.bandwidth_bytes_per_sec /= 4;
  fig.topology.set_link_params(fig.trunk_r_cpp, slow);
  fig.topology.set_link_params(fig.trunk_cpp_c, slow);

  harness::ScenarioOptions options;
  options.protocol = core::Config::for_size(fig.topology.host_count());
  options.seed = 9;
  harness::Experiment e(fig.topology, options);
  warm_up(e);

  // One continuous stream across all three phases.
  const sim::TimePoint t0 = e.simulator().now();
  e.broadcast_stream(400, sim::milliseconds(250), t0 + sim::seconds(1));

  util::Table table({"phase", "C leader", "leader's parent cluster",
                     "induces cluster tree", "leaders/cluster"});
  auto report_phase = [&](const std::string& phase) {
    const auto report = e.convergence();
    const HostId leader = leader_of_c(e, fig);
    const HostId parent = leader.valid() ? e.host(leader).parent() : kNoHost;
    const int pc = parent.valid() ? cluster_of(fig, parent) : -1;
    const char* names[] = {"R", "C'", "C''", "C"};
    std::string leaders;
    for (int n : report.leaders_per_cluster) {
      leaders += std::to_string(n) + " ";
    }
    table.row()
        .cell(phase)
        .cell(leader.valid() ? "h" + std::to_string(leader.value) : "none")
        .cell(pc >= 0 ? names[pc] : "(none)")
        .cell(report.induces_cluster_tree ? "yes" : "no")
        .cell(leaders);
  };

  // Phase 1: everything up. Leaders legally concentrate under R (the most
  // advanced INFO sets live there).
  e.run_for(sim::seconds(30));
  report_phase("all up (R visible)");

  // Phase 2: partition R away mid-stream. To pose the paper's question,
  // cluster C is first starved for a few seconds (its C'-side trunk down,
  // so its data detours over the slow C'' side and queues there), then the
  // R trunks are cut — the queued backlog dies with them — and the C'-C
  // trunk comes back. Now C is behind, C' is the most advanced host in the
  // partition and C'' lags it: C's leader must re-parent, and per the
  // paper it must pick the prompter C'.
  e.network().set_link_up(fig.trunk_cp_c, false);
  e.run_for(sim::seconds(4));
  e.network().set_link_up(fig.trunk_r_cp, false);
  e.network().set_link_up(fig.trunk_r_cpp, false);
  e.network().set_link_up(fig.trunk_cp_c, true);
  e.run_for(sim::seconds(40));
  report_phase("R partitioned away");

  // Phase 3: heal. R pulls ahead again; II.3 migrates leaders back.
  e.network().set_link_up(fig.trunk_r_cp, true);
  e.network().set_link_up(fig.trunk_r_cpp, true);
  e.run_for(sim::seconds(60));
  report_phase("partition healed");

  table.print(std::cout);

  // Let the stream finish and verify completeness.
  e.run_until_delivered(e.simulator().now() + sim::seconds(300),
                        sim::milliseconds(500));
  const auto final_report = e.convergence();
  std::cout << "\nfinal: induces cluster tree = "
            << (final_report.induces_cluster_tree ? "yes" : "no")
            << ", all caught up = "
            << (final_report.all_caught_up ? "yes" : "no") << "\n";
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::run();
  return 0;
}
