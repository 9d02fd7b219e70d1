// rbcast_sim — command-line scenario runner.
//
// Builds a clustered WAN, runs either the paper's protocol or the basic
// baseline over a message stream with optional faults, and reports
// delivery, latency, cost and convergence results — as a table or as CSV
// for scripting.
//
// Examples:
//   rbcast_sim --clusters 4 --hosts 3 --messages 50
//   rbcast_sim --protocol basic --loss 0.1 --messages 30
//   rbcast_sim --clusters 3 --shape line --partition-at 10 --csv
//              --partition-heal 40 --messages 60
//   rbcast_sim --flap --messages 100 --seed 7 --verbose
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "parse_number.h"
#include "rbcast.h"

using namespace rbcast;

namespace {

struct CliOptions {
  int clusters = 3;
  int hosts = 3;
  topo::TrunkShape shape = topo::TrunkShape::kRing;
  bool arpanet = false;
  harness::ProtocolKind kind = harness::ProtocolKind::kPaper;
  int messages = 30;
  int interval_ms = 500;
  harness::ArrivalProcess arrivals = harness::ArrivalProcess::kUniform;
  int burst_size = 5;
  double loss = 0.0;
  double duplication = 0.0;
  std::uint64_t seed = 1;
  double partition_at = -1.0;    // seconds; <0 = no partition
  double partition_heal = -1.0;  // seconds
  bool flap = false;
  double deadline_s = 600.0;
  bool csv = false;
  bool verbose = false;
  std::string dot_prefix;  // write <prefix>.topology.dot / .parents.dot
  std::string csv_prefix;  // write <prefix>.counters.csv / .latencies.csv
  std::string trace_out;     // JSONL trace file (rbcast_trace reads it)
  std::string chrome_trace;  // Chrome/Perfetto trace_event JSON file
  int sample_period_ms = 1000;  // metric time-series period when tracing
  int batch_flush_ms = 0;       // 0 = coalescing data plane off
  std::string chaos_spec;       // replay a chaos spec instead (rbcast_chaos)
  std::uint64_t chaos_seed = 1;
};

// Deterministic replay of a chaos reproducer (rbcast_chaos repro.json):
// re-runs the spec under the invariant monitor and reports the violations.
// Exit 0 = clean, 1 = violations reproduced.
int run_chaos_replay(const CliOptions& cli) {
  harness::ChaosSpec spec;
  try {
    spec = harness::load_chaos_spec(cli.chaos_spec);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  std::ofstream trace_file;
  std::unique_ptr<trace::JsonlSink> jsonl_sink;
  if (!cli.trace_out.empty()) {
    trace_file.open(cli.trace_out);
    if (!trace_file) {
      std::cerr << "cannot open " << cli.trace_out << " for writing\n";
      return 2;
    }
    jsonl_sink = std::make_unique<trace::JsonlSink>(trace_file);
  }
  const harness::ChaosRunResult result =
      harness::run_chaos(spec, cli.chaos_seed, jsonl_sink.get());
  if (jsonl_sink != nullptr) {
    jsonl_sink->close();
    std::cerr << "wrote " << cli.trace_out << "\n";
  }
  std::cout << (cli.csv ? "# " : "") << result.manifest
            << " chaos_spec=" << cli.chaos_spec
            << " chaos_seed=" << cli.chaos_seed << "\n";
  std::cout << "delivered everywhere: " << (result.delivered_all ? "yes" : "NO")
            << "  completion: " << result.completion_s << "s\n";
  if (!result.violated()) {
    std::cout << "invariants: all hold\n";
    return 0;
  }
  std::cout << "invariant violations:\n";
  for (const auto& v : result.violations) {
    std::cout << "  [" << v.invariant << "] t=" << sim::to_seconds(v.at)
              << "s: " << v.description << "\n";
  }
  return 1;
}

void usage() {
  std::cout <<
      "rbcast_sim — reliable broadcast scenario runner\n\n"
      "topology:\n"
      "  --clusters N       number of clusters (default 3)\n"
      "  --hosts N          hosts per cluster (default 3)\n"
      "  --shape S          trunk shape: line|ring|star|random (default ring)\n"
      "  --arpanet          use the stylized c.1980 ARPANET map instead\n"
      "network faults:\n"
      "  --loss P           trunk loss probability [0,1) (default 0)\n"
      "  --dup P            trunk duplication probability [0,1)\n"
      "                     (default 0)\n"
      "  --partition-at T   cut trunk 0 at T seconds\n"
      "  --partition-heal T repair it at T seconds\n"
      "  --flap             all trunks flap (up ~10s / down ~5s) while the\n"
      "                     stream runs\n"
      "workload:\n"
      "  --protocol P       paper|basic|gossip (default paper)\n"
      "  --messages N       stream length (default 30)\n"
      "  --interval-ms N    spacing between broadcasts (default 500)\n"
      "  --arrivals A       uniform|poisson|bursty|sustained\n"
      "                     (default uniform)\n"
      "  --burst N          messages per burst for bursty (default 5)\n"
      "run control:\n"
      "  --dot PREFIX       write PREFIX.topology.dot and\n"
      "                     PREFIX.parents.dot (Graphviz) at the end\n"
      "  --metrics-csv P    write P.counters.csv and P.latencies.csv\n"
      "  --trace-out F      stream a JSONL trace of the run to F\n"
      "                     (analyze with rbcast_trace)\n"
      "  --chrome-trace F   also write a Chrome/Perfetto trace_event file\n"
      "  --batch-flush-ms N coalesce same-destination frames for up to\n"
      "                     N ms (the batched data plane, for every\n"
      "                     --protocol; default 0 = off). Coalescer\n"
      "                     counters then appear in the trace's\n"
      "                     \"registry\" metric records\n"
      "  --sample-period-ms N\n"
      "                     metric time-series period when tracing\n"
      "                     (default 1000; 0 disables sampling)\n"
      "  --seed N           experiment seed (default 1)\n"
      "  --deadline T       give up after T virtual seconds (default 600)\n"
      "  --chaos-spec F     replay a chaos spec/reproducer under the\n"
      "                     invariant monitor (ignores topology/workload\n"
      "                     flags; exit 1 if violations reproduce)\n"
      "  --chaos-seed N     seed for --chaos-spec (default 1)\n"
      "  --csv              machine-readable output\n"
      "  --verbose          protocol event log on stderr\n"
      "  --help             this text\n";
}

bool parse(int argc, char** argv, CliOptions& options) {
  const tools::ArgReader args{argc, argv};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--flap") {
      options.flap = true;
    } else if (arg == "--arpanet") {
      options.arpanet = true;
    } else if (arg == "--clusters") {
      if (!args.number(i, options.clusters)) return false;
    } else if (arg == "--hosts") {
      if (!args.number(i, options.hosts)) return false;
    } else if (arg == "--shape") {
      if ((value = args.value(i)) == nullptr) return false;
      const std::string s = value;
      if (s == "line") {
        options.shape = topo::TrunkShape::kLine;
      } else if (s == "ring") {
        options.shape = topo::TrunkShape::kRing;
      } else if (s == "star") {
        options.shape = topo::TrunkShape::kStar;
      } else if (s == "random") {
        options.shape = topo::TrunkShape::kRandomTree;
      } else {
        std::cerr << "unknown shape: " << s << "\n";
        return false;
      }
    } else if (arg == "--protocol") {
      if ((value = args.value(i)) == nullptr) return false;
      const std::string p = value;
      if (p == "paper") {
        options.kind = harness::ProtocolKind::kPaper;
      } else if (p == "basic") {
        options.kind = harness::ProtocolKind::kBasic;
      } else if (p == "gossip") {
        options.kind = harness::ProtocolKind::kGossip;
      } else {
        std::cerr << "unknown protocol: " << p << "\n";
        return false;
      }
    } else if (arg == "--messages") {
      if (!args.number(i, options.messages)) return false;
    } else if (arg == "--interval-ms") {
      if (!args.number(i, options.interval_ms)) return false;
    } else if (arg == "--arrivals") {
      if ((value = args.value(i)) == nullptr) return false;
      const std::string a = value;
      if (a == "uniform") {
        options.arrivals = harness::ArrivalProcess::kUniform;
      } else if (a == "poisson") {
        options.arrivals = harness::ArrivalProcess::kPoisson;
      } else if (a == "bursty") {
        options.arrivals = harness::ArrivalProcess::kBursty;
      } else if (a == "sustained") {
        options.arrivals = harness::ArrivalProcess::kSustained;
      } else {
        std::cerr << "unknown arrival process: " << a << "\n";
        return false;
      }
    } else if (arg == "--burst") {
      if (!args.number(i, options.burst_size)) return false;
    } else if (arg == "--loss") {
      if (!args.number(i, options.loss)) return false;
    } else if (arg == "--dup") {
      if (!args.number(i, options.duplication)) return false;
    } else if (arg == "--dot") {
      if ((value = args.value(i)) == nullptr) return false;
      options.dot_prefix = value;
    } else if (arg == "--metrics-csv") {
      if ((value = args.value(i)) == nullptr) return false;
      options.csv_prefix = value;
    } else if (arg == "--trace-out") {
      if ((value = args.value(i)) == nullptr) return false;
      options.trace_out = value;
    } else if (arg == "--chrome-trace") {
      if ((value = args.value(i)) == nullptr) return false;
      options.chrome_trace = value;
    } else if (arg == "--batch-flush-ms") {
      if (!args.number(i, options.batch_flush_ms)) return false;
    } else if (arg == "--sample-period-ms") {
      if (!args.number(i, options.sample_period_ms)) return false;
    } else if (arg == "--seed") {
      if (!args.number(i, options.seed)) return false;
    } else if (arg == "--chaos-spec") {
      if ((value = args.value(i)) == nullptr) return false;
      options.chaos_spec = value;
    } else if (arg == "--chaos-seed") {
      if (!args.number(i, options.chaos_seed)) return false;
    } else if (arg == "--partition-at") {
      if (!args.number(i, options.partition_at)) return false;
    } else if (arg == "--partition-heal") {
      if (!args.number(i, options.partition_heal)) return false;
    } else if (arg == "--deadline") {
      if (!args.number(i, options.deadline_s)) return false;
    } else {
      std::cerr << "unknown flag: " << arg << " (try --help)\n";
      return false;
    }
  }
  if (options.clusters < 1 || options.hosts < 1 || options.messages < 0) {
    std::cerr << "invalid topology/workload parameters\n";
    return false;
  }
  if ((options.partition_at >= 0) != (options.partition_heal >= 0)) {
    std::cerr << "--partition-at and --partition-heal go together\n";
    return false;
  }
  if (options.sample_period_ms < 0) {
    std::cerr << "--sample-period-ms must be >= 0\n";
    return false;
  }
  if (options.batch_flush_ms < 0) {
    std::cerr << "--batch-flush-ms must be >= 0\n";
    return false;
  }
  if (options.interval_ms <= 0) {
    std::cerr << "--interval-ms must be > 0\n";
    return false;
  }
  if (options.burst_size < 1) {
    std::cerr << "--burst must be >= 1\n";
    return false;
  }
  if (!(options.loss >= 0.0 && options.loss < 1.0) ||
      !(options.duplication >= 0.0 && options.duplication < 1.0)) {
    std::cerr << "--loss and --dup must be in [0,1)\n";
    return false;
  }
  if (options.partition_at >= 0 &&
      sim::from_seconds(options.partition_heal) <=
          sim::from_seconds(options.partition_at)) {
    std::cerr << "--partition-heal must come after --partition-at\n";
    return false;
  }
  if (!(options.deadline_s > 0.0)) {
    std::cerr << "--deadline must be > 0\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse(argc, argv, cli)) return 2;

  if (cli.verbose) {
    util::Logger::instance().set_level(util::LogLevel::kInfo);
  }

  if (!cli.chaos_spec.empty()) return run_chaos_replay(cli);

  topo::Topology topology;
  std::vector<LinkId> trunks;
  if (cli.arpanet) {
    topo::Arpanet arpa = topo::make_arpanet();
    for (LinkId trunk : arpa.trunks) {
      auto params = arpa.topology.link(trunk).params;
      params.loss_probability = cli.loss;
      params.duplication_probability = cli.duplication;
      arpa.topology.set_link_params(trunk, params);
    }
    topology = std::move(arpa.topology);
    trunks = std::move(arpa.trunks);
  } else {
    topo::ClusteredWanOptions wan_options;
    wan_options.clusters = cli.clusters;
    wan_options.hosts_per_cluster = cli.hosts;
    wan_options.shape = cli.shape;
    wan_options.expensive.loss_probability = cli.loss;
    wan_options.expensive.duplication_probability = cli.duplication;
    wan_options.cheap.loss_probability = cli.loss / 5.0;
    wan_options.seed = cli.seed;
    topo::Wan wan = make_clustered_wan(wan_options);
    topology = std::move(wan.topology);
    trunks = std::move(wan.trunks);
  }

  harness::ScenarioOptions options;
  options.protocol_kind = cli.kind;
  options.seed = cli.seed;
  options.protocol.batch_flush_delay = sim::milliseconds(cli.batch_flush_ms);
  harness::Experiment e(std::move(topology), options);

  // The reproduction line: everything needed to rerun this exact run.
  // Also the first record of every trace file.
  std::cout << (cli.csv ? "# " : "") << trace::manifest_line(e.manifest())
            << "\n";

  // --- trace export --------------------------------------------------------

  std::ofstream trace_file;
  std::ofstream chrome_file;
  std::unique_ptr<trace::JsonlSink> jsonl_sink;
  std::unique_ptr<trace::ChromeTraceSink> chrome_sink;
  trace::MultiSink trace_fanout;
  if (!cli.trace_out.empty()) {
    trace_file.open(cli.trace_out);
    if (!trace_file) {
      std::cerr << "cannot open " << cli.trace_out << " for writing\n";
      return 2;
    }
    jsonl_sink = std::make_unique<trace::JsonlSink>(trace_file);
    trace_fanout.add(jsonl_sink.get());
  }
  if (!cli.chrome_trace.empty()) {
    chrome_file.open(cli.chrome_trace);
    if (!chrome_file) {
      std::cerr << "cannot open " << cli.chrome_trace << " for writing\n";
      return 2;
    }
    chrome_sink = std::make_unique<trace::ChromeTraceSink>(chrome_file);
    trace_fanout.add(chrome_sink.get());
  }
  if (jsonl_sink != nullptr || chrome_sink != nullptr) {
    e.set_trace_sink(&trace_fanout);
    if (cli.sample_period_ms > 0) {
      e.enable_metric_sampling(sim::milliseconds(cli.sample_period_ms));
    }
  }

  if (cli.partition_at >= 0 && !trunks.empty()) {
    e.faults().partition_window({trunks[0]},
                                sim::from_seconds(cli.partition_at),
                                sim::from_seconds(cli.partition_heal));
  }
  if (cli.flap && !trunks.empty()) {
    e.faults().flapping(trunks, sim::seconds(10), sim::seconds(5),
                        sim::from_seconds(cli.deadline_s), e.rngs());
  }

  e.start();
  harness::WorkloadOptions workload;
  workload.process = cli.arrivals;
  workload.messages = cli.messages;
  workload.interval = sim::milliseconds(cli.interval_ms);
  workload.burst_size = cli.burst_size;
  workload.first_at = sim::seconds(1);
  schedule_workload(e, workload, util::Rng(cli.seed));
  const sim::TimePoint done =
      e.run_until_delivered(sim::from_seconds(cli.deadline_s));

  // Close out the trace: one final metric sample so every series covers
  // the full run, then flush/finalize the backends.
  if (e.sampler() != nullptr) e.sampler()->sample_now();
  trace_fanout.close();
  if (!cli.trace_out.empty()) {
    std::cerr << "wrote " << cli.trace_out << "\n";
  }
  if (!cli.chrome_trace.empty()) {
    std::cerr << "wrote " << cli.chrome_trace
              << " (load in ui.perfetto.dev)\n";
  }

  // --- report --------------------------------------------------------------

  const auto& metrics = e.metrics();
  const auto latency = metrics.all_latencies();
  const bool complete = e.all_delivered();

  util::Table summary({"metric", "value"});
  summary.row().cell("network").cell(e.topology().describe());
  summary.row().cell("protocol").cell(
      cli.kind == harness::ProtocolKind::kPaper
          ? "paper"
          : (cli.kind == harness::ProtocolKind::kBasic ? "basic" : "gossip"));
  summary.row().cell("messages").cell(
      static_cast<std::int64_t>(cli.messages));
  summary.row().cell("delivered everywhere").cell(complete ? "yes" : "NO");
  summary.row().cell("completion time (s)").cell(sim::to_seconds(done), 2);
  summary.row().cell("mean delay (s)").cell(latency.mean(), 4);
  summary.row().cell("p95 delay (s)").cell(latency.quantile(0.95), 4);
  summary.row().cell("inter-cluster data sends").cell(
      metrics.intercluster_data_sends());
  summary.row().cell("inter-cluster control sends").cell(
      metrics.intercluster_control_sends());
  summary.row().cell("total sends").cell(metrics.host_sends());
  summary.row().cell("drops").cell(metrics.counter_prefix_sum("drop."));
  const LinkId hot = metrics.busiest_trunk();
  if (hot.valid()) {
    std::ostringstream hot_desc;
    hot_desc << hot << " at "
             << static_cast<int>(metrics.link_utilization(hot) * 100)
             << "% busy";
    summary.row().cell("busiest trunk").cell(hot_desc.str());
  }

  if (cli.kind == harness::ProtocolKind::kPaper) {
    const auto report = e.convergence();
    summary.row().cell("tree rooted at source").cell(
        report.tree_rooted_at_source ? "yes" : "no");
    summary.row().cell("induces cluster tree").cell(
        report.induces_cluster_tree ? "yes" : "no");
    summary.row().cell("cluster leaders").cell(
        static_cast<std::int64_t>(report.leader_count));
  }

  if (cli.csv) {
    summary.print_csv(std::cout);
  } else {
    summary.print(std::cout);
  }

  if (!cli.csv_prefix.empty()) {
    std::ofstream counters_out(cli.csv_prefix + ".counters.csv");
    metrics.write_counters_csv(counters_out);
    std::ofstream latencies_out(cli.csv_prefix + ".latencies.csv");
    metrics.write_latencies_csv(latencies_out);
    std::cerr << "wrote " << cli.csv_prefix << ".counters.csv and "
              << cli.csv_prefix << ".latencies.csv\n";
  }

  if (!cli.dot_prefix.empty()) {
    std::ofstream topo_out(cli.dot_prefix + ".topology.dot");
    trace::write_topology_dot(topo_out, e.network());
    std::cerr << "wrote " << cli.dot_prefix << ".topology.dot\n";
    if (cli.kind == harness::ProtocolKind::kPaper) {
      std::ofstream parents_out(cli.dot_prefix + ".parents.dot");
      trace::write_parent_graph_dot(parents_out, e.host_views(),
                                    e.network(), e.source());
      std::cerr << "wrote " << cli.dot_prefix << ".parents.dot\n";
    }
  }
  return complete ? 0 : 1;
}
