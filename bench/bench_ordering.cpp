// E14 — the Section 1 unordered-delivery claim.
//
// "it is not essential that broadcast messages be always delivered in the
//  order they were dispatched. ... this relaxation of requirements on a
//  reliable broadcast gives potentially more flexibility to the protocol
//  and may improve its average delay characteristic."
//
// We run the identical lossy scenario twice: once delivering messages to
// the application as they arrive (the paper's discipline) and once through
// a FIFO reorder buffer. The delay difference — especially in the tail,
// where one lost message holds back everything behind it — is the measured
// value of the relaxation. The reorder buffer's peak occupancy is its
// memory price.
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Row {
  double mean_delay;
  double p95_delay;
  double max_delay;
  std::size_t max_buffered;  // reorder-buffer peak (0 when unordered)
};

Row run_one(double trunk_loss, bool ordered) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 3;
  wan.expensive.loss_probability = trunk_loss;
  wan.cheap.loss_probability = trunk_loss / 5.0;
  const auto built = make_clustered_wan(wan);

  harness::ScenarioOptions options;
  options.protocol = core::Config::for_size(built.topology.host_count());
  options.ordered_delivery = ordered;
  options.seed = 14;

  harness::Experiment e(built.topology, options);
  warm_up(e);
  stream_and_finish(e, 80, sim::milliseconds(400));

  std::size_t max_buffered = 0;
  if (ordered) {
    for (HostId h : e.topology().host_ids()) {
      if (h == e.source()) continue;
      max_buffered =
          std::max(max_buffered, e.ordered_adapter(h).max_buffered());
    }
  }
  const auto latency = e.metrics().all_latencies();
  return Row{latency.mean(), latency.quantile(0.95), latency.max(),
             max_buffered};
}

void run() {
  print_header(
      "E14 bench_ordering",
      "Application-visible delay: unordered (the paper's choice) vs FIFO "
      "reorder buffer\n(Section 1: relaxing order \"may improve its average "
      "delay characteristic\")");

  util::Table table({"trunk loss", "delivery", "mean delay s", "p95 s",
                     "max s", "peak reorder buffer"});
  for (double loss : {0.0, 0.05, 0.15, 0.30}) {
    for (bool ordered : {false, true}) {
      const Row row = run_one(loss, ordered);
      table.row()
          .cell(loss, 2)
          .cell(ordered ? "in-order" : "unordered")
          .cell(row.mean_delay, 3)
          .cell(row.p95_delay, 3)
          .cell(row.max_delay, 3)
          .cell(static_cast<std::uint64_t>(row.max_buffered));
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
