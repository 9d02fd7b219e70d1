// E7 — the Section 6 reliability-cost trade-off.
//
// "The more frequently this is done, the more chance we will have to use
//  the brief interval to deliver the message, and, at the same time, the
//  more costly the algorithm will be."
//
// Flapping trunks plus loss create brief communication opportunities. We
// sweep one knob — the scale of all four exchange periods — and report the
// trade-off frontier: control cost (sends/s) against reliability
// (fraction of messages delivered everywhere within a fixed deadline, and
// mean delay of those delivered).
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Point {
  double control_per_s;
  double delivered_fraction;  // (host, msg) pairs delivered by the deadline
  double mean_delay_s;
};

Point run_one(double period_scale) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 2;
  // A line: every trunk is a cut edge, so a down-phase really is a
  // partition — the brief up-phases are the "communication opportunities"
  // Section 6 talks about.
  wan.shape = topo::TrunkShape::kLine;
  wan.expensive.loss_probability = 0.10;
  const auto built = make_clustered_wan(wan);

  harness::ScenarioOptions options;
  options.protocol = core::Config::for_size(built.topology.host_count());
  scale_periods(options.protocol, period_scale);
  options.seed = 7;

  harness::Experiment e(built.topology, options);
  warm_up(e);

  const sim::TimePoint t0 = e.simulator().now();
  constexpr double kWindow = 240.0;
  // Trunks flap: up ~4 s, down ~16 s — connectivity comes in brief
  // windows that a slow exchange schedule will often miss entirely.
  e.faults().flapping(built.trunks, sim::seconds(4), sim::seconds(16),
                      t0 + sim::from_seconds(kWindow) + sim::seconds(3600),
                      e.rngs());

  constexpr int kMessages = 60;
  e.broadcast_stream(kMessages, sim::seconds(2), t0 + sim::seconds(1));
  e.run_until(t0 + sim::from_seconds(kWindow));  // hard deadline

  const auto& m = e.metrics();
  const double expected_deliveries =
      static_cast<double>(kMessages) * static_cast<double>(e.host_count());
  double delivered = 0;
  for (util::Seq q = 2; q <= kMessages + 1; ++q) {  // skip the warm-up msg
    delivered += static_cast<double>(m.delivered_count(q));
  }
  return Point{control_sends(m) / kWindow, delivered / expected_deliveries,
               m.all_latencies().mean()};
}

void run() {
  print_header(
      "E7 bench_tradeoff",
      "Reliability vs control cost under flapping trunks + 5% loss\n"
      "(paper: exchange/gap-fill frequency buys the ability to exploit "
      "brief\n connectivity windows, at proportional control cost)");

  util::Table table({"period scale", "control sends/s",
                     "delivered by deadline", "mean delay s"});
  for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const Point p = run_one(scale);
    table.row()
        .cell(scale, 2)
        .cell(p.control_per_s, 1)
        .cell(p.delivered_fraction, 3)
        .cell(p.mean_delay_s, 2);
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::run();
  return 0;
}
