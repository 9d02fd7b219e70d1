// perfbench — the wall-clock end-to-end benchmark with a traced per-layer
// breakdown.
//
//   perfbench --workload wan64|stream16 --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 repeats the untraced run (what users run) for about S seconds
// and reports the end-to-end metrics: times as medians over the runs,
// scaled by the reference kernel timed around each of them (reference.h);
// virtual-time delays and allocations from one pass over every input
// variant. --trace 1 alternates an untraced and a traced run of the same
// input for about S seconds, checks that the traced run did exactly the
// untraced run's work, and reports the per-layer metrics (medians over the
// traced runs); with --out-dir it also writes the first traced run's spans
// as a Chrome trace_event file and its per-layer self times as JSON.
//
// Every run is checked: exactly-once first receipts, a repeatable digest
// and allocation count for one input, and byte-equal bodies (traced runs).
// Human-readable lines come first; the last line of stdout is one JSON
// object {correct, attempted, failed, metrics}. The exit code is 0 only
// when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "reference.h"
#include "runs.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  int trace{0};
  std::string out_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
  std::string note;  // sample counts, for the human-readable lines
};

// Keep the per-span record small: the first spans of the run are enough to
// see the call structure in a trace viewer.
constexpr std::size_t kKeptSpans = 50000;
// Reference passes timed just before and just after each measurement.
constexpr int kReferencePasses = 9;
// Set-up time: the median of this many batches, each of set-ups adding up
// to at least kSetupBatchS, so that no sample is a single sub-millisecond
// set-up.
constexpr int kSetupBatches = 21;
constexpr double kSetupBatchS = 0.03;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// A measurement taken between two timings of the reference kernel.
struct Referenced {
  double reference_s;  // mean of the median pass before and after

  // Scales a time measured in between to the reference machine.
  [[nodiscard]] double scale(double t) const {
    return t * kReferenceNominalS / reference_s;
  }
};

template <typename Measure>
Referenced referenced(Measure&& measure) {
  const double before = reference_s(kReferencePasses);
  measure();
  return {0.5 * (before + reference_s(kReferencePasses))};
}

std::string count_note(std::size_t runs, const std::string& extra = {}) {
  std::ostringstream os;
  os << "median of " << runs << " run" << (runs == 1 ? "" : "s");
  if (!extra.empty()) os << "; " << extra;
  return os.str();
}

std::string percentile_note(std::size_t variants, std::size_t samples,
                            double q) {
  std::ostringstream os;
  os << "median over " << variants << " input variants of each one's "
     << "percentile over " << samples << " (host, message) pairs, "
     << static_cast<std::size_t>(static_cast<double>(samples) * (1.0 - q))
     << " beyond; virtual time";
  return os.str();
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << arg << "\n";
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      o.trace = std::atoi(value.c_str());
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return false;
    }
  }
  if (o.workload.empty() || o.seconds <= 0.0 ||
      (o.trace != 0 && o.trace != 1)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    return false;
  }
  return true;
}

// Failed output checks, reported by name.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  void print(std::ostream& os) const {
    for (const std::string& f : failures_) os << "CHECK FAILED: " << f << "\n";
  }

 private:
  std::vector<std::string> failures_;
};

// Checks every run: exactly-once first receipts.
void check_run(const Inputs& in, const RunResult& r, const std::string& label,
               Checks& checks) {
  checks.expect(r.delivered_events ==
                    r.delivered + static_cast<std::uint64_t>(in.messages),
                label + ": first receipts are not exactly once per pair");
}

// A repeated input must repeat the digest and the allocation count.
void check_repeat(const RunResult& first, const RunResult& again,
                  const std::string& label, Checks& checks) {
  checks.expect(again.digest == first.digest, label + ": digest differs");
  checks.expect(again.allocs == first.allocs,
                label + ": allocation count differs");
}

// The traced run must do exactly the untraced run's work.
void check_faithful(const RunResult& u, const RunResult& t, Checks& checks) {
  checks.expect(t.bad_bodies == 0, "traced: delivered body differs");
  checks.expect(t.delivered == u.delivered, "traced: deliveries differ");
  checks.expect(t.delivered_events == u.delivered_events,
                "traced: first-receipt events differ");
  checks.expect(t.digest == u.digest, "traced: EventLog digest differs");
  checks.expect(t.net_counters == u.net_counters,
                "traced: host sends / network counters differ");
}

// The timed figures of one untraced run, raw, and the reference around it.
struct TimedRun {
  double wall_s;
  double cpu_us_per_delivery;
  Referenced ref;
};

// Sum of the trace::Metrics counters named `prefix` + one more dot-free
// part, e.g. "send.info" and "send.data" but not "send.intercluster.info".
std::uint64_t counter_sum(const std::map<std::string, std::uint64_t>& counters,
                          std::string_view prefix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : counters) {
    if (name.starts_with(prefix) &&
        name.find('.', prefix.size()) == std::string::npos) {
      sum += value;
    }
  }
  return sum;
}

double per_call(const LayerTotals& t, std::uint64_t LayerTotals::* field) {
  return ratio(static_cast<double>(t.*field), static_cast<double>(t.calls));
}

// Per-layer metrics of one traced run `t` (with its tracer and counts) and
// the untraced run `u` of the same input.
std::vector<Metric> per_layer(const RunResult& u, const RunResult& t,
                              const Tracer& tracer, const TraceCounts& c) {
  const LayerTotals& step = tracer.totals(Layer::kSimStep);
  const LayerTotals& send = tracer.totals(Layer::kTransportSend);
  const LayerTotals& upcall = tracer.totals(Layer::kCoreUpcall);
  const LayerTotals& timer = tracer.totals(Layer::kCoreTimer);
  const LayerTotals& net_obs = tracer.totals(Layer::kNetObserver);
  const LayerTotals& proto_obs = tracer.totals(Layer::kProtocolObserver);
  const auto frames = static_cast<double>(c.frames);
  // The network sees one host send per datagram, batched or not.
  const auto datagrams =
      static_cast<double>(counter_sum(t.net_counters, "send."));
  const auto counter = [&t](const std::string& name) {
    const auto it = t.net_counters.find(name);
    return it == t.net_counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  using LT = LayerTotals;
  return {
      {"sim.events", "count", static_cast<double>(c.sim_events), ""},
      {"sim.step_self_ns", "ns", per_call(step, &LT::self_ns), ""},
      {"sim.allocs_per_event", "allocs/event",
       per_call(step, &LT::self_allocs), ""},
      {"sim.pending_peak", "count", static_cast<double>(c.pending_peak), ""},
      {"net.host_sends", "count", frames, ""},
      {"net.sends_per_delivery", "sends/delivery",
       ratio(frames, static_cast<double>(t.delivered)), ""},
      {"net.info_send_frac", "fraction",
       ratio(static_cast<double>(c.info_frames), frames), ""},
      {"net.info_byte_frac", "fraction",
       ratio(static_cast<double>(c.info_bytes),
             static_cast<double>(c.frame_bytes)),
       ""},
      {"net.link_transmits", "count",
       static_cast<double>(counter_sum(t.net_counters, "link.")), ""},
      {"net.drops_queue_overflow", "count", counter("drop.queue_overflow"),
       ""},
      {"net.queue_wait_p99_s", "s", c.queue_backlog_s.quantile(0.99),
       "over " + std::to_string(c.queue_backlog_s.count()) + " enqueues"},
      {"transport.send_ns", "ns", per_call(send, &LT::self_ns), ""},
      {"transport.allocs_per_send", "allocs/send",
       per_call(send, &LT::self_allocs), ""},
      {"transport.frames_per_datagram", "frames/datagram",
       ratio(frames, datagrams), ""},
      {"core.upcall_self_ns", "ns", per_call(upcall, &LT::self_ns), ""},
      {"core.allocs_per_upcall", "allocs/upcall",
       per_call(upcall, &LT::self_allocs), ""},
      {"core.duplicate_frac", "fraction",
       ratio(static_cast<double>(t.duplicates_discarded),
             static_cast<double>(c.data_received)),
       ""},
      {"core.timer_firings", "count", static_cast<double>(timer.calls), ""},
      {"core.timer_self_ns", "ns", per_call(timer, &LT::self_ns), ""},
      {"trace.net_observer_ns", "ns", per_call(net_obs, &LT::self_ns), ""},
      {"trace.protocol_observer_ns", "ns", per_call(proto_obs, &LT::self_ns),
       ""},
      {"trace.allocs_per_send", "allocs/send",
       ratio(static_cast<double>(net_obs.self_allocs + proto_obs.self_allocs),
             frames),
       ""},
      {"trace.overhead_frac", "fraction", ratio(t.wall_s, u.wall_s) - 1.0, ""},
  };
}

// Per-layer calls, self time and self allocations, as a table and as JSON.
void print_layers(std::ostream& os, const Tracer& tracer) {
  os << "layer                     calls      total_ms    self_ms  "
        "self_allocs\n";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    const LayerTotals& t = tracer.totals(layer);
    os << std::left << std::setw(24) << layer_name(layer) << std::right
       << std::setw(9) << t.calls << std::setw(13) << std::fixed
       << std::setprecision(1) << static_cast<double>(t.total_ns) / 1e6
       << std::setw(11) << static_cast<double>(t.self_ns) / 1e6
       << std::setw(13) << t.self_allocs << "\n";
  }
  os.unsetf(std::ios::floatfield);
}

void write_layers_json(std::ostream& os, const Tracer& tracer) {
  os << "{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    const LayerTotals& t = tracer.totals(layer);
    os << (i == 0 ? "" : ",") << "\n  \"" << layer_name(layer)
       << "\": {\"calls\": " << t.calls << ", \"total_ns\": " << t.total_ns
       << ", \"self_ns\": " << t.self_ns
       << ", \"self_allocs\": " << t.self_allocs << "}";
  }
  os << "\n}\n";
}

void write_trace_files(const Options& o, const Tracer& tracer) {
  if (o.out_dir.empty()) return;
  std::filesystem::create_directories(o.out_dir);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed);
  std::ofstream chrome(stem + ".trace.json");
  tracer.write_chrome_trace(chrome);
  std::ofstream layers(stem + ".layers.json");
  write_layers_json(layers, tracer);
  std::cout << "wrote " << stem << ".trace.json and .layers.json\n";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << std::left << std::setw(30) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << std::left << std::setw(16) << m.unit << std::right << m.note
              << "\n";
  }
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(12) << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

int run(const Options& o) {
  const std::optional<Inputs> first_inputs = make_inputs(o.workload, o.seed, 0);
  if (!first_inputs) {
    std::cerr << "unknown workload " << o.workload << " (known:";
    for (const std::string& name : workload_names()) std::cerr << " " << name;
    std::cerr << ")\n";
    return 2;
  }
  const auto variants = static_cast<std::size_t>(first_inputs->variants);
  std::cout << "workload " << o.workload << "  seed " << o.seed << "  "
            << first_inputs->host_count() << " hosts  "
            << first_inputs->messages << " messages every "
            << rbcast::util::to_seconds(first_inputs->interval) << " s  "
            << variants << " input variants  trace " << o.trace << "\n";
  // Run i uses input variant i mod variants.
  auto inputs_for = [&](std::size_t run) {
    return *make_inputs(o.workload, o.seed, static_cast<int>(run % variants));
  };

  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto census = [&](const Inputs& in, const RunResult& r) {
    attempted += in.pairs();
    failed += in.pairs() - r.delivered;
  };
  const Clock::time_point begin = Clock::now();
  // True while another run of the mean length so far still fits.
  auto another_fits = [&](std::size_t runs) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - begin).count();
    return elapsed * static_cast<double>(runs + 1) /
               static_cast<double>(runs) <=
           o.seconds;
  };

  std::vector<Metric> metrics;
  if (o.trace == 0) {
    // Every variant runs once, and one of them twice.
    std::vector<TimedRun> runs;
    std::vector<RunResult> first_of_variant;
    // Delay percentiles of each variant's first run.
    std::vector<double> p50, p99;
    std::size_t delay_samples = 0;
    std::uint64_t pass_allocs = 0;
    std::uint64_t pass_delivered = 0;
    while (runs.size() <= variants || another_fits(runs.size())) {
      const Inputs in = inputs_for(runs.size());
      RunResult r;
      const Referenced ref =
          referenced([&] { r = run_untraced(in, /*setup_only=*/false); });
      const std::string label = "run " + std::to_string(runs.size() + 1);
      check_run(in, r, label, checks);
      census(in, r);
      runs.push_back({r.wall_s,
                      ratio(r.cpu_s * 1e6, static_cast<double>(r.delivered)),
                      ref});
      if (first_of_variant.size() < variants) {
        p50.push_back(r.delays_s.quantile(0.50));
        p99.push_back(r.delays_s.quantile(0.99));
        delay_samples = r.delays_s.count();
        pass_allocs += r.allocs;
        pass_delivered += r.delivered;
        r.delays_s = {};
        first_of_variant.push_back(std::move(r));
      } else {
        check_repeat(first_of_variant[static_cast<std::size_t>(in.variant)],
                     r, label, checks);
      }
    }
    std::vector<double> setups;
    std::vector<double> setups_raw;
    for (int b = 0; b < kSetupBatches; ++b) {
      double total = 0.0;
      int count = 0;
      const Referenced ref = referenced([&] {
        while (total < kSetupBatchS) {
          total += run_untraced(*first_inputs, /*setup_only=*/true).setup_s;
          ++count;
        }
      });
      setups_raw.push_back(total / count);
      setups.push_back(ref.scale(total / count));
    }

    std::vector<double> wall, cpu, wall_raw, cpu_raw, refs;
    std::cout << "per run: raw wall_s / reference ms:";
    for (const TimedRun& r : runs) {
      wall.push_back(r.ref.scale(r.wall_s));
      cpu.push_back(r.ref.scale(r.cpu_us_per_delivery));
      wall_raw.push_back(r.wall_s);
      cpu_raw.push_back(r.cpu_us_per_delivery);
      refs.push_back(r.ref.reference_s);
      std::cout << " " << r.wall_s << "/" << r.ref.reference_s * 1e3;
    }
    std::cout << "\nunscaled medians: wall_s " << median(wall_raw)
              << "  cpu_us_per_delivery " << median(cpu_raw) << "  setup_s "
              << median(setups_raw) << "  reference pass "
              << median(refs) * 1e3 << " ms (nominal "
              << kReferenceNominalS * 1e3 << " ms)\n";
    const RunResult& first = first_of_variant.front();
    std::cout << "variant 0: " << first.delivered << "/"
              << first_inputs->pairs() << " pairs delivered, " << first.allocs
              << " allocations, digest " << std::hex << first.digest
              << std::dec << "\n";
    const std::string scaled = "scaled to the reference kernel";
    metrics = {
        {"wall_s", "s", median(wall), count_note(runs.size(), scaled)},
        {"cpu_us_per_delivery", "us", median(cpu),
         count_note(runs.size(), scaled)},
        {"delay_p50_s", "s", median(p50),
         percentile_note(variants, delay_samples, 0.50)},
        {"delay_p99_s", "s", median(p99),
         percentile_note(variants, delay_samples, 0.99)},
        {"allocs_per_delivery", "allocs/delivery",
         ratio(static_cast<double>(pass_allocs),
               static_cast<double>(pass_delivered)),
         "over " + std::to_string(variants) + " input variants"},
        {"peak_rss_mb", "MB", peak_rss_mb(), "whole process"},
        {"setup_s", "s", median(setups),
         "median of " + std::to_string(kSetupBatches) +
             " batches of set-ups; " + scaled},
    };
  } else {
    std::vector<std::vector<Metric>> pairs;
    do {
      const Inputs in = inputs_for(pairs.size());
      const RunResult u = run_untraced(in, /*setup_only=*/false);
      Tracer tracer(pairs.empty() ? kKeptSpans : 0);
      TraceCounts counts;
      const RunResult t = run_traced(in, Traced{tracer, counts});
      const std::string label = "pair " + std::to_string(pairs.size() + 1);
      check_run(in, u, label + " untraced", checks);
      check_run(in, t, label + " traced", checks);
      check_faithful(u, t, checks);
      census(in, u);
      census(in, t);
      pairs.push_back(per_layer(u, t, tracer, counts));
      if (pairs.size() == 1) {
        print_layers(std::cout, tracer);
        std::cout << "traced run: " << counts.sim_events << " events, "
                  << counts.frames << " host sends, " << t.allocs
                  << " allocations (untraced " << u.allocs << "), "
                  << tracer.excluded_allocs() << " by the tracer\n";
        write_trace_files(o, tracer);
      }
    } while (another_fits(pairs.size()));
    metrics = pairs.front();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::vector<double> values;
      for (const auto& p : pairs) values.push_back(p[i].value);
      metrics[i].value = median(values);
      metrics[i].note = count_note(pairs.size(), metrics[i].note);
    }
  }

  print_metrics(metrics);
  std::cout << "undelivered_frac " << ratio(static_cast<double>(failed),
                                            static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " pairs)\n";
  checks.print(std::cout);
  std::cout << result_json(checks.ok(), attempted, failed, metrics)
            << std::endl;
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse(argc, argv, options)) return 2;
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
