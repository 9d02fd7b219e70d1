// Ablations of the design choices the paper leaves open (DESIGN.md §7 and
// Section 6's "fairly obvious optimizations"):
//
//   A. parent_switch_margin — hysteresis on case II option (3): re-parent
//      churn vs. delivery delay.
//   B. piggyback_info — Section 6 piggybacking: carrying INFO on data
//      messages lets the separate INFO exchange run much slower for the
//      same delay.
//   C. far_fill_targets — how many non-neighbor targets one host serves
//      per far gap-fill round: catch-up speed vs. redundant repair
//      traffic (too many targets can congestion-collapse slow trunks).
//   D. enable_pruning — Section 6 INFO pruning: control-message size on
//      the wire with and without it.
#include "support/common.h"

namespace rbcast::bench {
namespace {

// --- A: re-parenting hysteresis ----------------------------------------

void ablate_margin() {
  std::cout
      << "\n--- A. parent_switch_margin (II.3 hysteresis) ---\n"
         "II.3 fires when a leader's parent falls behind some other host — "
         "here, after a\n60 s partition+heal cycle, when the reconnected "
         "fragment's leaders must migrate\nback toward the source side. "
         "Larger margins delay that migration. The rule\ncounts also "
         "document *which* attachment options actually fire.\n";
  util::Table table({"margin", "II.3 attempts", "I.* attempts",
                     "III.1 attempts", "post-heal mean delay s"});
  for (util::Seq margin : {0u, 5u, 20u, 100u}) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 4;
    wan.hosts_per_cluster = 2;
    wan.shape = topo::TrunkShape::kLine;
    const auto built = make_clustered_wan(wan);

    harness::ScenarioOptions options;
    options.protocol = core::Config::for_size(built.topology.host_count());
    options.protocol.parent_switch_margin = margin;
    options.seed = 21;

    harness::Experiment e(built.topology, options);
    warm_up(e);
    const sim::TimePoint t0 = e.simulator().now();
    const sim::TimePoint heal = t0 + sim::seconds(60);
    e.faults().partition_window({built.trunks[1]}, t0 + sim::seconds(2),
                                heal);
    // Stream spans the partition and continues well past the heal.
    e.broadcast_stream(240, sim::milliseconds(500), t0 + sim::seconds(1));
    e.run_until_delivered(t0 + sim::seconds(600));

    // Attach attempts by the rule that proposed them: the event log
    // records each with its rule as detail.
    std::uint64_t ii3 = 0;
    std::uint64_t case_i = 0;
    std::uint64_t iii1 = 0;
    const trace::EventLog& log = e.events();
    for (const trace::Event& event : log.events()) {
      if (event.type != trace::EventType::kAttachRequested) continue;
      const std::string& rule = log.detail(event);
      if (rule == "II.3") {
        ++ii3;
      } else if (rule == "III.1") {
        ++iii1;
      } else {
        ++case_i;
      }
    }
    // Latency of messages broadcast after the heal (seq > 120 + warmup).
    const auto latency = e.metrics().latencies_between(140, 241);
    table.row()
        .cell(static_cast<std::uint64_t>(margin))
        .cell(ii3)
        .cell(case_i)
        .cell(iii1)
        .cell(latency.mean(), 3);
  }
  table.print(std::cout);
}

// --- B: piggybacked INFO -------------------------------------------------

void ablate_piggyback() {
  std::cout << "\n--- B. piggyback_info (Section 6 piggybacking) ---\n";
  util::Table table({"piggyback", "info period scale", "control sends/s",
                     "data bytes/msg", "p95 delay s"});
  for (bool piggyback : {false, true}) {
    for (double scale : {1.0, 4.0, 16.0}) {
      util::Samples control_rate;
      util::Samples data_size;
      util::Samples p95;
      for (std::uint64_t seed : {22u, 122u, 222u, 322u, 422u}) {
        topo::ClusteredWanOptions wan;
        wan.clusters = 3;
        wan.hosts_per_cluster = 3;
        // Loss makes MAP freshness matter: gap detection (and thus repair
        // latency) is driven by how recently neighbors' INFO was heard.
        wan.expensive.loss_probability = 0.15;
        wan.cheap.loss_probability = 0.03;
        wan.seed = seed;
        const auto built = make_clustered_wan(wan);

        harness::ScenarioOptions options;
        options.protocol = core::Config::for_size(built.topology.host_count());
        options.protocol.piggyback_info = piggyback;
        options.protocol.info_period_intra =
            util::scaled(options.protocol.info_period_intra, scale);
        options.protocol.info_period_inter =
            util::scaled(options.protocol.info_period_inter, scale);
        options.seed = seed;

        harness::Experiment e(built.topology, options);
        warm_up(e);
        constexpr int kMessages = 60;
        const sim::TimePoint t0 = e.simulator().now();
        e.broadcast_stream(kMessages, sim::milliseconds(500),
                           t0 + sim::milliseconds(1));
        const sim::TimePoint done =
            e.run_until_delivered(t0 + sim::seconds(600));

        const auto& m = e.metrics();
        const double window = sim::to_seconds(done - t0);
        const double control =
            static_cast<double>(m.counter("send.info")) +
            static_cast<double>(m.counter("send.attach_req")) +
            static_cast<double>(m.counter("send.attach_ack")) +
            static_cast<double>(m.counter("send.detach"));
        const double data_msgs = static_cast<double>(
            m.counter("send.data") + m.counter("send.gapfill"));
        const double data_bytes =
            static_cast<double>(m.counter("send_bytes.data") +
                                m.counter("send_bytes.gapfill"));
        control_rate.add(control / window);
        data_size.add(data_msgs > 0 ? data_bytes / data_msgs : 0.0);
        p95.add(m.all_latencies().quantile(0.95));
      }
      table.row()
          .cell(piggyback ? "on" : "off")
          .cell(scale, 0)
          .cell(control_rate.mean(), 1)
          .cell(data_size.mean(), 0)
          .cell(p95.mean(), 2);
    }
  }
  table.print(std::cout);
}

// --- C: non-neighbor fill fan-out ---------------------------------------

void ablate_far_targets() {
  std::cout << "\n--- C. far_fill_targets (non-neighbor gap-fill fan-out) "
               "---\n";
  std::cout << "Holes (not backlogs) engage non-neighbor filling: heavy "
               "random loss scatters\ngaps below every host's maximum, and "
               "every up-to-date host can repair them.\nMore targets per "
               "round repair no faster — they just duplicate work.\n";
  util::Table table({"targets/round", "completion (s)", "gap-fill msgs",
                     "redundant (dup discards)"});
  for (std::size_t targets : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{16}}) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 4;
    wan.hosts_per_cluster = 2;
    wan.shape = topo::TrunkShape::kLine;
    wan.expensive.loss_probability = 0.30;
    wan.cheap.loss_probability = 0.05;
    const auto built = make_clustered_wan(wan);

    harness::ScenarioOptions options;
    options.protocol = core::Config::for_size(built.topology.host_count());
    options.protocol.far_fill_targets = targets;
    options.seed = 23;

    harness::Experiment e(built.topology, options);
    warm_up(e);
    const double completion =
        stream_and_finish(e, 100, sim::milliseconds(500));
    std::uint64_t duplicates = 0;
    for (HostId h : e.topology().host_ids()) {
      duplicates += e.host(h).counters().duplicates_discarded;
    }
    table.row()
        .cell(static_cast<std::uint64_t>(targets))
        .cell(completion, 1)
        .cell(e.metrics().counter("send.gapfill"))
        .cell(duplicates);
  }
  table.print(std::cout);
}

// --- D: INFO pruning ---------------------------------------------------------

void ablate_pruning() {
  std::cout << "\n--- D. enable_pruning (Section 6 INFO pruning) ---\n";
  util::Table table({"pruning", "stream length", "avg info msg bytes",
                     "final INFO intervals at source"});
  for (bool pruning : {true, false}) {
    for (int messages : {100, 400}) {
      topo::ClusteredWanOptions wan;
      wan.clusters = 2;
      wan.hosts_per_cluster = 2;
      // Light loss keeps INFO sets fragmented so size differences show.
      wan.expensive.loss_probability = 0.05;
      const auto built = make_clustered_wan(wan);

      harness::ScenarioOptions options;
      options.protocol = core::Config::for_size(built.topology.host_count());
      options.protocol.enable_pruning = pruning;
      options.seed = 24;

      harness::Experiment e(built.topology, options);
      warm_up(e);
      stream_and_finish(e, messages, sim::milliseconds(200));
      e.run_for(sim::seconds(20));  // let pruning catch up

      const auto& m = e.metrics();
      const double info_msgs = static_cast<double>(m.counter("send.info"));
      const double info_bytes =
          static_cast<double>(m.counter("send_bytes.info"));
      table.row()
          .cell(pruning ? "on" : "off")
          .cell(messages)
          .cell(info_msgs > 0 ? info_bytes / info_msgs : 0.0, 1)
          .cell(e.host(e.source()).info().intervals().size());
    }
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace rbcast::bench

int main() {
  rbcast::bench::print_header(
      "E13 bench_ablations",
      "Design-choice ablations: hysteresis, piggybacking, gap-fill "
      "fan-out, pruning");
  rbcast::bench::ablate_margin();
  rbcast::bench::ablate_piggyback();
  rbcast::bench::ablate_far_targets();
  rbcast::bench::ablate_pruning();
  return 0;
}
