// rbcast_check — bounded model checking of the protocol rules.
//
// Explores the protocol model (src/model) under an adversarial network —
// every delivery order, loss and duplication at any point — and verifies
// the safety invariants (exactly-once, integrity, no invention, INFO
// consistency) in every reachable state.
//
// Examples:
//   rbcast_check                               # default: 3 hosts, BFS
//   rbcast_check --hosts 2 --depth 16          # deeper, smaller system
//   rbcast_check --clusters 0,0,1 --walks 5000 # random-walk mode
//   rbcast_check --mutant double-delivery      # watch the checker catch it
//   rbcast_check --determinism-check           # replay gate (see below)
//   rbcast_check --determinism-check --expect tests/data/determinism_digests.txt
#include <charconv>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <tuple>
#include <vector>

#include "parse_number.h"
#include "rbcast.h"

using namespace rbcast;

namespace {

// --- determinism self-check ---------------------------------------------
//
// The runtime half of the determinism gate (the static half is
// rbcast_analyze's determinism rules): run the full simulator on the same topology and seed
// twice, and require bit-identical protocol event logs (via
// trace::EventLog::digest()). Any hidden nondeterminism — hash-order
// iteration, unseeded randomness, address-dependent tie-breaks — shows up
// as a digest mismatch. CI runs this under ASan/UBSan.
//
// Run-vs-run agreement cannot catch a change that reorders events the
// same way every time, so --expect FILE also compares each digest with a
// pinned value. FILE holds one `<seed> <plain|batch> <topology> <digest>`
// line per scenario (digest in hex; `#` starts a comment). A scenario with
// no line for the current seed and mode fails the check.

struct DeterminismScenario {
  std::string name;
  topo::Topology topology;
};

std::vector<DeterminismScenario> determinism_scenarios() {
  std::vector<DeterminismScenario> out;
  out.push_back({"figure-3.2", topo::make_figure_3_2().topology});
  out.push_back({"figure-4.1", topo::make_figure_4_1().topology});
  topo::ClusteredWanOptions wan;
  wan.clusters = 3;
  wan.hosts_per_cluster = 3;
  wan.shape = topo::TrunkShape::kRing;
  wan.seed = 7;
  out.push_back({"clustered-wan-ring-3x3", topo::make_clustered_wan(wan).topology});
  out.push_back({"single-cluster-5", topo::make_single_cluster(5).topology});
  return out;
}

std::uint64_t run_once(const topo::Topology& topology, std::uint64_t seed,
                       bool batch) {
  harness::ScenarioOptions options;
  options.source = HostId{0};
  options.seed = seed;
  if (batch) {
    // Exercise the coalescing data plane: the digests differ from the
    // unbatched ones (different wire traffic) but must still be
    // bit-identical across same-seed runs.
    options.protocol.batch_flush_delay = sim::milliseconds(5);
    options.protocol.batch_max_bytes = 1200;
  }
  harness::Experiment experiment(topology, options);
  experiment.start();
  experiment.broadcast_stream(15, sim::milliseconds(500), sim::seconds(1));
  experiment.run_for(sim::seconds(60));
  return experiment.events().digest();
}

// (seed, "plain"|"batch", topology name) -> pinned digest.
using PinnedDigests =
    std::map<std::tuple<std::uint64_t, std::string, std::string>,
             std::uint64_t>;

std::optional<PinnedDigests> read_pinned_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return std::nullopt;
  }
  PinnedDigests pinned;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line.substr(0, line.find('#')));
    if ((fields >> std::ws).eof()) continue;  // blank or comment-only line
    std::uint64_t seed = 0;
    std::string mode, name, digest;
    std::uint64_t value = 0;
    bool well_formed = (fields >> seed >> mode >> name >> digest) &&
                       (mode == "plain" || mode == "batch");
    if (well_formed) {
      // Bare hex digits only: no sign, no 0x prefix, nothing trailing.
      const char* end = digest.data() + digest.size();
      const auto [stop, ec] = std::from_chars(digest.data(), end, value, 16);
      well_formed = ec == std::errc{} && stop == end;
    }
    if (!well_formed) {
      std::cerr << path << ":" << line_no
                << ": expected <seed> <plain|batch> <topology> <digest>\n";
      return std::nullopt;
    }
    pinned[{seed, mode, name}] = value;
  }
  return pinned;
}

int run_determinism_check(std::uint64_t seed, bool batch,
                          const PinnedDigests* pinned) {
  bool repeats = true;
  bool as_pinned = true;
  const std::string mode = batch ? "batch" : "plain";
  std::cout << "determinism check: two runs per topology, seed " << seed
            << (batch ? ", batching on" : "")
            << (pinned != nullptr ? ", against pinned digests" : "") << "\n";
  for (DeterminismScenario& scenario : determinism_scenarios()) {
    const std::uint64_t first = run_once(scenario.topology, seed, batch);
    const std::uint64_t second = run_once(scenario.topology, seed, batch);
    std::string verdict = first == second ? "OK" : "MISMATCH";
    if (pinned != nullptr) {
      auto it = pinned->find({seed, mode, scenario.name});
      if (it == pinned->end()) {
        verdict += ", NOT PINNED";
        as_pinned = false;
      } else if (it->second != first) {
        std::ostringstream expected;
        expected << std::hex << std::setfill('0') << std::setw(16)
                 << it->second;
        verdict += ", PINNED " + expected.str();
        as_pinned = false;
      }
    }
    repeats = repeats && first == second;
    std::cout << "  " << std::left << std::setw(24) << scenario.name
              << std::right << " digest " << std::hex << std::setfill('0')
              << std::setw(16) << first << " / " << std::setw(16) << second
              << std::dec << std::setfill(' ') << "  " << verdict << "\n";
  }
  if (!repeats) {
    std::cout << "result: NONDETERMINISM detected\n";
  } else if (!as_pinned) {
    std::cout << "result: runs repeat, but do not match the pinned digests\n";
  } else {
    std::cout << "result: all event logs bit-identical\n";
  }
  return repeats && as_pinned ? 0 : 1;
}

void usage() {
  std::cout <<
      "rbcast_check — bounded verification of the broadcast protocol\n\n"
      "  --hosts N         number of hosts (default 3)\n"
      "  --clusters LIST   comma-separated cluster index per host\n"
      "                    (default: every host its own cluster)\n"
      "  --broadcasts N    messages the source may generate (default 2)\n"
      "  --inflight N      adversarial network capacity (default 4)\n"
      "  --depth N         BFS depth bound (default 7)\n"
      "  --max-states N    BFS state bound (default 2000000)\n"
      "  --walks N         use random walks instead of BFS\n"
      "  --liveness N      N fault-free fair walks; report how many reach\n"
      "                    full dissemination\n"
      "  --steps N         steps per walk (default 150)\n"
      "  --seed N          random-walk seed (default 1)\n"
      "  --mutant M        inject a bug: double-delivery | accept-anyone\n"
      "  --determinism-check  run each built-in topology twice on the same\n"
      "                    seed and require identical event-log digests\n"
      "  --batch           with --determinism-check: enable transport\n"
      "                    coalescing (batch_flush_delay 5ms) in the runs\n"
      "  --expect FILE     with --determinism-check: also require each\n"
      "                    digest to equal its pinned value in FILE\n"
      "  --help            this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  model::ModelConfig config;
  config.hosts = 3;
  config.cluster_of = {0, 1, 2};
  int depth = 7;
  std::uint64_t max_states = 2'000'000;
  int walks = 0;
  int liveness_walks = 0;
  int steps = 150;
  std::uint64_t seed = 1;
  bool clusters_given = false;
  bool determinism_check = false;
  bool batch = false;
  std::string expect_path;

  const tools::ArgReader args{argc, argv};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--hosts") {
      if (!args.number(i, config.hosts)) return 2;
    } else if (arg == "--clusters") {
      const char* list = args.value(i);
      if (list == nullptr) return 2;
      config.cluster_of.clear();
      std::stringstream ss(list);
      std::string part;
      while (std::getline(ss, part, ',')) {
        int cluster = 0;
        if (!tools::parse_number(arg, part, cluster)) return 2;
        config.cluster_of.push_back(cluster);
      }
      clusters_given = true;
    } else if (arg == "--broadcasts") {
      if (!args.number(i, config.max_broadcasts)) return 2;
    } else if (arg == "--inflight") {
      if (!args.number(i, config.max_inflight)) return 2;
    } else if (arg == "--depth") {
      if (!args.number(i, depth)) return 2;
    } else if (arg == "--max-states") {
      if (!args.number(i, max_states)) return 2;
    } else if (arg == "--walks") {
      if (!args.number(i, walks)) return 2;
    } else if (arg == "--liveness") {
      if (!args.number(i, liveness_walks)) return 2;
    } else if (arg == "--steps") {
      if (!args.number(i, steps)) return 2;
    } else if (arg == "--seed") {
      if (!args.number(i, seed)) return 2;
    } else if (arg == "--determinism-check") {
      determinism_check = true;
    } else if (arg == "--batch") {
      batch = true;
    } else if (arg == "--expect") {
      const char* path = args.value(i);
      if (path == nullptr) return 2;
      expect_path = path;
    } else if (arg == "--mutant") {
      const char* mutant = args.value(i);
      if (mutant == nullptr) return 2;
      const std::string m = mutant;
      if (m == "double-delivery") {
        config.mutant_double_delivery = true;
      } else if (m == "accept-anyone") {
        config.mutant_accept_from_anyone = true;
      } else {
        std::cerr << "unknown mutant: " << m << "\n";
        return 2;
      }
    } else {
      std::cerr << "unknown flag: " << arg << " (try --help)\n";
      return 2;
    }
  }
  if (config.hosts < 1 || config.max_broadcasts < 0 || depth < 0 ||
      walks < 0 || liveness_walks < 0 || steps < 1) {
    std::cerr << "--hosts and --steps must be positive; --broadcasts, "
                 "--depth, --walks and --liveness must not be negative\n";
    return 2;
  }
  if (determinism_check) {
    if (expect_path.empty()) return run_determinism_check(seed, batch, nullptr);
    const auto pinned = read_pinned_digests(expect_path);
    if (!pinned) return 2;
    return run_determinism_check(seed, batch, &*pinned);
  }
  if (!clusters_given) {
    config.cluster_of.clear();
    for (int i = 0; i < config.hosts; ++i) config.cluster_of.push_back(i);
  }
  if (config.cluster_of.size() != static_cast<std::size_t>(config.hosts)) {
    std::cerr << "--clusters must list exactly --hosts entries\n";
    return 2;
  }

  model::Checker checker(config);
  std::cout << "configuration: " << config.hosts << " hosts, source h0, "
            << config.max_broadcasts << " broadcasts, inflight cap "
            << config.max_inflight << "\n";

  if (liveness_walks > 0) {
    const int live_steps = steps > 150 ? steps : 400;
    std::cout << "mode: " << liveness_walks << " fair (fault-free) walks x "
              << live_steps << " steps (seed " << seed << ")\n";
    const auto live = checker.explore_liveness(liveness_walks, live_steps,
                                               seed);
    std::cout << "full dissemination reached: " << live.completed << "/"
              << live.walks << " walks";
    if (live.completed > 0) {
      std::cout << " (mean " << live.mean_steps_to_complete << " steps)";
    }
    std::cout << "\nsafety: "
              << (live.clean() ? "all invariants held" : "VIOLATION")
              << "\n";
    return live.clean() && live.completed == live.walks ? 0 : 1;
  }

  model::ExplorationReport report;
  if (walks > 0) {
    std::cout << "mode: " << walks << " random walks x " << steps
              << " steps (seed " << seed << ")\n";
    report = checker.explore_random(walks, steps, seed);
  } else {
    std::cout << "mode: exhaustive BFS, depth " << depth << ", state bound "
              << max_states << "\n";
    report = checker.explore_bfs(depth, max_states);
  }

  std::cout << "states explored:   " << report.states_explored << "\n"
            << "transitions fired: " << report.transitions_fired << "\n"
            << "bounds hit:        " << (report.truncated ? "yes" : "no")
            << "\n";
  if (report.clean()) {
    std::cout << "result: all safety invariants hold in every explored "
                 "state\n";
    return 0;
  }
  const auto& violation = report.violations.front();
  std::cout << "result: VIOLATION of " << violation.invariant << " — "
            << violation.description << "\ncounterexample ("
            << violation.trace.size() << " steps):\n";
  for (const std::string& step : violation.trace) {
    std::cout << "  " << step << "\n";
  }
  return 1;
}
