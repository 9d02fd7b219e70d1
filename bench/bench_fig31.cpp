// E8 — Figure 3.1: optimal broadcast is impossible with nonprogrammable
// servers.
//
// In the figure's network (three hosts on a star through switch s4), an
// in-network multicast would traverse each of the three trunks exactly
// once per broadcast: 3 link transmissions. Nonprogrammable servers cannot
// duplicate messages, so every host-level protocol pays at least 4 (two
// unicasts, each crossing two trunks). We measure actual per-message link
// transmissions for the cluster-tree protocol and the basic algorithm
// against that lower bound, plus the host-level cost metric (inter-cluster
// host-to-host transmissions), where the tree achieves its k-1 optimum.
#include "support/common.h"

namespace rbcast::bench {
namespace {

struct Row {
  double data_link_tx_per_msg;  // data-family trunk transmissions per msg
  double all_link_tx_per_msg;   // including control / acks
  double host_sends_per_msg;    // inter-cluster host-to-host sends per msg
};

Row run_one(harness::ProtocolKind kind) {
  const auto fig = topo::make_figure_3_1();

  harness::ScenarioOptions options;
  options.protocol_kind = kind;
  options.protocol = core::Config::for_size(fig.topology.host_count());
  options.seed = 8;

  harness::Experiment e(fig.topology, options);
  warm_up(e);

  constexpr int kMessages = 30;
  stream_and_finish(e, kMessages, sim::seconds(1));

  const auto& m = e.metrics();
  const double data_tx =
      static_cast<double>(m.counter("link.expensive.data") +
                          m.counter("link.expensive.gapfill") +
                          m.counter("link.expensive.data_retx"));
  return Row{data_tx / kMessages,
             static_cast<double>(m.counter("link.expensive")) / kMessages,
             static_cast<double>(m.intercluster_data_sends()) / kMessages};
}

void run() {
  print_header(
      "E8 bench_fig31",
      "Figure 3.1 network: h1..h3 on a star through pure switch s4\n"
      "(paper: the server-level optimum of 3 link transmissions per message "
      "is\n unreachable without programmable servers; host-level protocols "
      "pay >= 4)");

  util::Table table({"scheme", "data trunk tx/msg", "all trunk tx/msg",
                     "inter-cluster host sends/msg"});
  table.row()
      .cell("in-network multicast (lower bound)")
      .cell(3.0, 2)
      .cell(3.0, 2)
      .cell("n/a");
  const Row tree = run_one(harness::ProtocolKind::kPaper);
  const Row basic = run_one(harness::ProtocolKind::kBasic);
  table.row()
      .cell("cluster tree (this paper)")
      .cell(tree.data_link_tx_per_msg, 2)
      .cell(tree.all_link_tx_per_msg, 2)
      .cell(std::to_string(tree.host_sends_per_msg).substr(0, 4) +
            "  (k-1 = 2 optimal)");
  table.row()
      .cell("basic algorithm")
      .cell(basic.data_link_tx_per_msg, 2)
      .cell(basic.all_link_tx_per_msg, 2)
      .cell(basic.host_sends_per_msg, 2);
  table.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::run();
  return 0;
}
