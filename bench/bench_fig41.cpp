// E10 — Figure 4.1: non-neighbor gap filling.
//
// "as i and j are not parent graph neighbors, they will not be able to
//  fill each other's gap even though they can communicate with each
//  other. To deal with this kind of situations we have to extend the
//  periodic gap filling process ... so that it takes place even among
//  hosts that are not host parent graph neighbors."
//
// We engineer the figure's exact state (complementary holes, equal INFO
// maxima, source cut off) and compare the protocol with and without the
// extension: time until both i and j are complete, or "never".
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Outcome {
  bool complete;
  double heal_seconds;   // from source cut-off to both hosts complete
  std::uint64_t nonneighbor_fills;
};

Outcome run_one(bool nonneighbor_gapfill) {
  const auto fig = topo::make_figure_4_1();

  harness::ScenarioOptions options;
  options.protocol = core::Config::for_size(fig.topology.host_count());
  options.protocol.nonneighbor_gapfill = nonneighbor_gapfill;
  // i and j keep s as their parent (the figure's premise).
  options.protocol.parent_timeout = sim::seconds(100000);
  // Small bodies keep trunk transit (~35 ms) inside the toggle spacing of
  // the engineered-loss window below.
  options.protocol.data_bytes = 64;
  options.seed = 10;

  harness::Experiment e(fig.topology, options);
  auto& net = e.network();
  e.start();
  e.broadcast();  // seq 1 forms the tree s -> {i, j}
  e.run_for(sim::seconds(15));

  // Engineer the complementary losses inside one stale-routing window
  // (see tests/integration_test.cpp for the rationale); toggles are spaced
  // so a trunk going down never kills a wanted in-flight copy.
  net.set_link_up(fig.trunk_si, false);
  e.run_for(sim::milliseconds(1));
  e.broadcast();  // seq 2 -> j only
  e.run_for(sim::milliseconds(59));
  net.set_link_up(fig.trunk_si, true);
  net.set_link_up(fig.trunk_sj, false);
  e.run_for(sim::milliseconds(1));
  e.broadcast();  // seq 3 -> i only
  e.run_for(sim::milliseconds(59));
  net.set_link_up(fig.trunk_sj, true);
  e.run_for(sim::milliseconds(1));
  e.broadcast();  // seq 4 -> both
  e.run_for(sim::milliseconds(60));
  // Cut s off for good.
  net.set_link_up(e.topology().host(fig.s).access_link, false);
  e.run_for(sim::milliseconds(200));

  const std::uint64_t fills_before = e.metrics().counter("send.gapfill");
  const sim::TimePoint cut_at = e.simulator().now();
  const sim::TimePoint deadline = cut_at + sim::seconds(300);
  while (e.simulator().now() < deadline) {
    if (e.host(fig.i).info().count() == 4 &&
        e.host(fig.j).info().count() == 4) {
      return Outcome{true, sim::to_seconds(e.simulator().now() - cut_at),
                     e.metrics().counter("send.gapfill") - fills_before};
    }
    e.run_for(sim::milliseconds(200));
  }
  return Outcome{false, -1.0,
                 e.metrics().counter("send.gapfill") - fills_before};
}

void run() {
  print_header(
      "E10 bench_fig41",
      "Figure 4.1: source isolated after partial delivery; INFO_i = "
      "{1,3,4}, INFO_j = {1,2,4}\n(paper: neighbor-only gap filling cannot "
      "help — i and j are not parent-graph\n neighbors and neither INFO set "
      "dominates; the Section 4.4 extension is required)");

  util::Table table({"gap filling", "both hosts complete",
                     "heal time after cut (s)", "gap-fill msgs sent"});
  const Outcome with = run_one(true);
  const Outcome without = run_one(false);
  table.row()
      .cell("neighbor + non-neighbor (Section 4.4)")
      .cell(with.complete ? "yes" : "no")
      .cell(with.complete ? with.heal_seconds : -1.0, 1)
      .cell(with.nonneighbor_fills);
  table.row()
      .cell("neighbor only (ablation)")
      .cell(without.complete ? "yes" : "NO - stalls forever")
      .cell(without.complete ? without.heal_seconds : -1.0, 1)
      .cell(without.nonneighbor_fills);
  table.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::run();
  return 0;
}
