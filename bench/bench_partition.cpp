// E4 — the Section 5 partition claim.
//
// "In a partitioned network, the source, using the basic algorithm, does
//  not stop trying to send data messages to all the hosts that are cut off
//  from it, which is wasteful. In our algorithm, the hosts in the same
//  partition will tend to organize into a tree, and only the root will
//  periodically probe the network."
//
// A line of three clusters; the trunk next to the source's cluster goes
// down for a long window mid-stream. We count data-family transmissions
// that died inside the network during the partition (wasted bandwidth) and
// the time to complete the stream after repair.
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Row {
  std::uint64_t wasted_data;      // data-family sends dropped in the window
  std::uint64_t wasted_control;   // control sends dropped in the window
  double catchup_seconds;         // repair -> everyone complete
  // Fraction of all (host, msg) deliveries complete over time — the
  // "delivery curve" whose flat segment is the partition.
  std::vector<std::pair<double, double>> curve;
};

Row run_one(harness::ProtocolKind kind) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 2;
  wan.shape = topo::TrunkShape::kLine;
  const auto built = make_clustered_wan(wan);

  harness::ScenarioOptions options;
  options.protocol_kind = kind;
  options.protocol = core::Config::for_size(built.topology.host_count());
  options.seed = 4;

  harness::Experiment e(built.topology, options);
  warm_up(e);  // ends around t=30s with metrics reset

  const sim::TimePoint t0 = e.simulator().now();
  const sim::TimePoint cut_at = t0 + sim::seconds(10);
  const sim::TimePoint heal_at = t0 + sim::seconds(70);
  e.faults().partition_window({built.trunks[0]}, cut_at, heal_at);

  // 40 messages, one per second: most of the stream happens while the
  // source's cluster is cut off from the other two.
  e.broadcast_stream(40, sim::seconds(1), t0 + sim::seconds(1));

  // Measure drops during the partition window only.
  e.run_until(cut_at);
  const auto drops_before_data = e.metrics().counter("drop_kind.data") +
                                 e.metrics().counter("drop_kind.data_retx") +
                                 e.metrics().counter("drop_kind.gapfill");
  const auto total_before = e.metrics().counter_prefix_sum("drop_kind.");
  e.run_until(heal_at);
  const auto drops_after_data = e.metrics().counter("drop_kind.data") +
                                e.metrics().counter("drop_kind.data_retx") +
                                e.metrics().counter("drop_kind.gapfill");
  const auto total_after = e.metrics().counter_prefix_sum("drop_kind.");

  const sim::TimePoint done =
      e.run_until_delivered(heal_at + sim::seconds(400),
                            sim::milliseconds(200));
  return Row{
      drops_after_data - drops_before_data,
      (total_after - total_before) - (drops_after_data - drops_before_data),
      sim::to_seconds(done - heal_at),
      e.metrics().completion_curve(5.0, e.host_count())};
}

void run() {
  print_header(
      "E4 bench_partition",
      "60 s partition isolating the source's cluster, 40-message stream\n"
      "(paper: basic wastes data transmissions on unreachable hosts for the\n"
      " whole partition; the tree only probes with control traffic, and\n"
      " catches the cut-off clusters up after repair)");

  util::Table table({"protocol", "wasted data msgs", "wasted control msgs",
                     "catch-up after repair (s)"});
  const Row tree = run_one(harness::ProtocolKind::kPaper);
  const Row basic = run_one(harness::ProtocolKind::kBasic);
  table.row()
      .cell("tree")
      .cell(tree.wasted_data)
      .cell(tree.wasted_control)
      .cell(tree.catchup_seconds, 1);
  table.row()
      .cell("basic")
      .cell(basic.wasted_data)
      .cell(basic.wasted_control)
      .cell(basic.catchup_seconds, 1);
  table.print(std::cout);

  // The delivery curve: flat through the partition (t in [40, 100] on the
  // measurement clock), then the tree catches up via gap filling while the
  // basic source grinds through retransmissions.
  std::cout << "\nDelivery curve (fraction of all host-deliveries "
               "complete; warm-up ends ~t=30, partition spans ~t=40..100):"
               "\n\n";
  util::Table curve({"sim time t (s)", "tree", "basic"});
  const std::size_t points =
      std::max(tree.curve.size(), basic.curve.size());
  for (std::size_t i = 0; i < points; ++i) {
    auto value_at = [&](const Row& row) {
      if (row.curve.empty()) return 0.0;
      if (i < row.curve.size()) return row.curve[i].second;
      return row.curve.back().second;
    };
    const double t = !tree.curve.empty() && i < tree.curve.size()
                         ? tree.curve[i].first
                         : static_cast<double>(i) * 5.0;
    curve.row().cell(t, 0).cell(value_at(tree), 3).cell(value_at(basic), 3);
  }
  curve.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::run();
  return 0;
}
