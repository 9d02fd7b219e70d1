// rbcast_chaos — randomized fault-schedule search with online invariant
// monitoring and auto-shrinking reproducers.
//
// Runs N seeded chaos scenarios from one ChaosSpec (or the built-in
// default: a 4-cluster WAN under outages, crashes, partitions and
// flapping). Every run executes under the InvariantMonitor (safety
// invariants I1-I5 plus liveness C1-C3). On the first violation the spec
// is delta-debugged down to a minimal concrete reproducer, written as
// repro.json alongside a JSONL trace of the minimized failing run.
//
// Examples:
//   rbcast_chaos --runs 64 --seed 1
//   rbcast_chaos --spec my_spec.json --runs 16 --out /tmp/chaos
//   rbcast_sim --chaos-spec repro.json --chaos-seed 7   # replay
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "parse_number.h"
#include "rbcast.h"

using namespace rbcast;

namespace {

struct CliOptions {
  std::string spec_path;       // empty: built-in default spec
  int runs = 16;
  std::uint64_t seed = 1;
  std::string out_dir = ".";
  int shrink_attempts = 120;
  bool shrink = true;
  bool print_spec = false;
};

void usage() {
  std::cout <<
      "rbcast_chaos — randomized fault-schedule search\n\n"
      "  --spec F              chaos spec JSON (default: built-in spec)\n"
      "  --runs N              seeded scenarios to run (default 16)\n"
      "  --seed N              base seed; run k uses seed N+k (default 1)\n"
      "  --out DIR             where to write repro.json / repro.jsonl\n"
      "                        (default .)\n"
      "  --shrink-attempts N   max re-runs while minimizing (default 120)\n"
      "  --no-shrink           write the failing spec without minimizing\n"
      "  --print-spec          print the effective spec and exit\n"
      "  --help                this text\n\n"
      "exit status: 0 all runs clean, 1 violation found, 2 usage error\n";
}

bool parse(int argc, char** argv, CliOptions& options) {
  const tools::ArgReader args{argc, argv};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--print-spec") {
      options.print_spec = true;
    } else if (arg == "--spec") {
      if ((value = args.value(i)) == nullptr) return false;
      options.spec_path = value;
    } else if (arg == "--runs") {
      if (!args.number(i, options.runs)) return false;
    } else if (arg == "--seed") {
      if (!args.number(i, options.seed)) return false;
    } else if (arg == "--out") {
      if ((value = args.value(i)) == nullptr) return false;
      options.out_dir = value;
    } else if (arg == "--shrink-attempts") {
      if (!args.number(i, options.shrink_attempts)) return false;
    } else {
      std::cerr << "unknown flag: " << arg << " (try --help)\n";
      return false;
    }
  }
  if (options.runs < 1 || options.shrink_attempts < 1) {
    std::cerr << "--runs and --shrink-attempts must be positive\n";
    return false;
  }
  return true;
}

void print_violations(const std::vector<harness::InvariantViolation>& vs) {
  for (const auto& v : vs) {
    std::cout << "    [" << v.invariant << "] t=" << sim::to_seconds(v.at)
              << "s: " << v.description << "\n";
  }
}

// Writes the minimized spec and a JSONL trace of its failing run; prints
// the two-line reproduction recipe.
int emit_repro(const harness::ChaosSpec& spec, std::uint64_t seed,
               const std::string& out_dir) {
  const std::string json_path = out_dir + "/repro.json";
  const std::string trace_path = out_dir + "/repro.jsonl";
  {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << to_json(spec);
  }
  {
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    trace::JsonlSink sink(trace_file);
    (void)harness::run_chaos(spec, seed, &sink);
    sink.close();
  }
  std::cout << "\nwrote " << json_path << " and " << trace_path << "\n"
            << "replay: rbcast_sim --chaos-spec " << json_path
            << " --chaos-seed " << seed << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse(argc, argv, cli)) return 2;

  harness::ChaosSpec spec;
  if (!cli.spec_path.empty()) {
    try {
      spec = harness::load_chaos_spec(cli.spec_path);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }
  if (cli.print_spec) {
    std::cout << to_json(spec);
    return 0;
  }

  for (int k = 0; k < cli.runs; ++k) {
    const std::uint64_t seed = cli.seed + static_cast<std::uint64_t>(k);
    harness::ChaosRunResult result;
    try {
      result = harness::run_chaos(spec, seed);
    } catch (const std::exception& e) {
      std::cerr << "run " << k << " (seed " << seed << ") failed: " << e.what()
                << "\n";
      return 2;
    }
    if (!result.violated()) {
      std::cout << "run " << k << " seed=" << seed << " ok"
                << (result.delivered_all ? "" : " (incomplete)")
                << " completion=" << result.completion_s << "s";
      if (!result.containment.byzantine.empty()) {
        std::cout << " auth_rejects=" << result.auth_rejects << " "
                  << to_string(result.containment);
      }
      std::cout << "\n";
      continue;
    }

    std::cout << "run " << k << " seed=" << seed << " VIOLATION (signature "
              << harness::violation_signature(result.violations.front())
              << ")\n";
    std::cout << "  " << result.manifest << "\n";
    if (!result.containment.byzantine.empty()) {
      std::cout << "  auth_rejects=" << result.auth_rejects << " "
                << to_string(result.containment) << "\n";
    }
    print_violations(result.violations);

    harness::ChaosSpec repro = harness::concretize(spec, seed);
    if (cli.shrink) {
      std::cout << "  shrinking (max " << cli.shrink_attempts
                << " attempts)...\n";
      const harness::ShrinkResult shrunk =
          harness::shrink_chaos(spec, seed, cli.shrink_attempts);
      std::cout << "  minimized: " << shrunk.events_before << " -> "
                << shrunk.events_after << " fault events in "
                << shrunk.attempts << " runs; violations of the repro:\n";
      print_violations(shrunk.violations);
      repro = shrunk.spec;
    }
    return emit_repro(repro, seed, cli.out_dir);
  }

  std::cout << "all " << cli.runs << " chaos runs clean\n";
  return 0;
}
