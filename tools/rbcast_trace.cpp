// rbcast_trace — offline analysis of JSONL run traces.
//
// Loads a trace written by `rbcast_sim --trace-out` (or any JsonlSink)
// and answers the questions an experimenter asks of a finished run:
// what happened overall, what one host did, how one broadcast message
// propagated, and how the tree converged. --compare diffs two traces of
// the same workload — canonically one simulated and one over real UDP
// sockets (rbcast_node) — on per-host delivery sets.
//
// Examples:
//   rbcast_sim --clusters 4 --messages 20 --trace-out run.jsonl
//   rbcast_trace --summary run.jsonl
//   rbcast_trace --timeline 3 run.jsonl
//   rbcast_trace --lineage 7 run.jsonl
//   rbcast_trace --convergence run.jsonl
//   rbcast_trace --compare sim.jsonl real.jsonl
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "parse_number.h"
#include "trace/trace_reader.h"

using namespace rbcast;

namespace {

enum class Mode { kSummary, kTimeline, kLineage, kConvergence, kCompare };

struct CliOptions {
  Mode mode = Mode::kSummary;
  std::int32_t host = -1;     // --timeline
  std::uint64_t seq = 0;      // --lineage
  std::string trace_path;
  std::string compare_path;   // second trace, --compare only
};

void usage() {
  std::cout <<
      "rbcast_trace — analyze a JSONL run trace\n\n"
      "usage: rbcast_trace [mode] TRACE.jsonl\n"
      "       rbcast_trace --compare LEFT.jsonl RIGHT.jsonl\n\n"
      "modes (default --summary):\n"
      "  --summary          manifest, record counts, deliveries, drops\n"
      "  --timeline HOST    every record on host HOST's track, in order\n"
      "  --lineage SEQ      the causal relay + gap-fill path of broadcast\n"
      "                     message SEQ across the network\n"
      "  --convergence      attachment / cycle-break timeline and when the\n"
      "                     tree last changed shape\n"
      "  --compare          diff two traces of the same workload on per-host\n"
      "                     delivery sets (sim vs real divergence report);\n"
      "                     exits 1 when they diverge\n"
      "  --help             this text\n\n"
      "Traces come from `rbcast_sim --trace-out F`, `rbcast_node "
      "--trace-out F`,\nor any trace::JsonlSink.\n";
}

bool parse(int argc, char** argv, CliOptions& options) {
  const tools::ArgReader args{argc, argv};
  int paths = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--summary") {
      options.mode = Mode::kSummary;
    } else if (arg == "--convergence") {
      options.mode = Mode::kConvergence;
    } else if (arg == "--compare") {
      options.mode = Mode::kCompare;
    } else if (arg == "--timeline") {
      if (!args.number(i, options.host)) return false;
      options.mode = Mode::kTimeline;
    } else if (arg == "--lineage") {
      if (!args.number(i, options.seq)) return false;
      options.mode = Mode::kLineage;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << " (try --help)\n";
      return false;
    } else if (paths == 0) {
      options.trace_path = arg;
      ++paths;
    } else if (paths == 1) {
      options.compare_path = arg;
      ++paths;
    } else {
      std::cerr << "more than two trace files given\n";
      return false;
    }
  }
  const int want = options.mode == Mode::kCompare ? 2 : 1;
  if (paths < want) {
    std::cerr << (want == 2 ? "--compare needs two trace files"
                            : "no trace file given")
              << " (try --help)\n";
    return false;
  }
  if (paths > want) {
    std::cerr << "more than one trace file given\n";
    return false;
  }
  return true;
}

// Loads one JSONL trace, exiting the process on unreadable/malformed input.
std::vector<trace::TraceRecord> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(2);
  }
  std::vector<trace::TraceRecord> records;
  std::string error;
  if (!trace::read_jsonl(in, &records, &error)) {
    std::cerr << path << ": " << error << "\n";
    std::exit(2);
  }
  if (records.empty()) {
    std::cerr << path << ": empty trace\n";
    std::exit(1);
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse(argc, argv, cli)) return 2;

  const std::vector<trace::TraceRecord> records = load_trace(cli.trace_path);

  switch (cli.mode) {
    case Mode::kSummary:
      trace::print_summary(std::cout, records);
      break;
    case Mode::kTimeline: {
      const auto track = trace::timeline(records, cli.host);
      if (track.empty()) {
        std::cerr << "no records for host " << cli.host << "\n";
        return 1;
      }
      for (const auto& r : track) trace::print_record(std::cout, r);
      break;
    }
    case Mode::kLineage: {
      const auto steps = trace::lineage(records, cli.seq);
      if (steps.empty()) {
        std::cerr << "no records for seq " << cli.seq
                  << " (trace ids require the paper or basic protocol)\n";
        return 1;
      }
      trace::print_lineage(std::cout, steps, cli.seq);
      break;
    }
    case Mode::kConvergence:
      trace::print_convergence(std::cout, records);
      break;
    case Mode::kCompare: {
      const std::vector<trace::TraceRecord> right =
          load_trace(cli.compare_path);
      const trace::TraceComparison cmp = trace::compare_traces(records, right);
      trace::print_comparison(std::cout, cmp, cli.trace_path,
                              cli.compare_path);
      return cmp.match ? 0 : 1;
    }
  }
  return 0;
}
