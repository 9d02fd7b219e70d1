// Shared plumbing for the experiment benches.
//
// Every bench regenerates one row/figure of the paper's evaluation: it
// builds a scenario through harness::Experiment, runs a warm-up phase (the
// protocol's tree must form before steady-state numbers mean anything),
// resets the metrics, streams a measured workload, and prints a table.
// Protocol timing comes from core::Config::for_size(n), so the experiments
// are comparable.
#pragma once

#include <iostream>
#include <ostream>
#include <string>

#include "rbcast.h"

namespace rbcast::bench {

// Scales the four exchange periods by `factor`: the Section 6 cost knob
// that bench_control_overhead and bench_tradeoff sweep.
inline void scale_periods(core::Config& c, double factor) {
  c.info_period_intra = util::scaled(c.info_period_intra, factor);
  c.info_period_inter = util::scaled(c.info_period_inter, factor);
  c.gapfill_period_neighbor = util::scaled(c.gapfill_period_neighbor, factor);
  c.gapfill_period_far = util::scaled(c.gapfill_period_far, factor);
}

// Runs one warm-up broadcast and lets the host parent graph converge.
inline void warm_up(harness::Experiment& e,
                    sim::Duration settle = sim::seconds(30)) {
  e.start();
  e.broadcast();
  e.run_for(settle);
  e.metrics().reset();
}

// Streams `count` messages `interval` apart, then runs until every host
// has everything (or the deadline passes). Returns the virtual completion
// time measured from the start of the stream.
inline double stream_and_finish(harness::Experiment& e, int count,
                                sim::Duration interval,
                                sim::Duration deadline = sim::seconds(600)) {
  const sim::TimePoint begin = e.simulator().now();
  e.broadcast_stream(count, interval, begin + sim::milliseconds(1));
  const sim::TimePoint done =
      e.run_until_delivered(begin + deadline, sim::milliseconds(200));
  return sim::to_seconds(done - begin);
}

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

// Host sends that carry no data: INFO, attachment and detach traffic (and
// the basic algorithm's acks).
inline double control_sends(const trace::Metrics& m) {
  return static_cast<double>(m.host_sends() - m.counter("send.data") -
                             m.counter("send.gapfill") -
                             m.counter("send.data_retx"));
}

// --json output of the gated benches: google-benchmark-shaped rows, so
// tools/bench_compare.py can hold them to a committed baseline
// (BENCH_congestion.json, BENCH_recovery.json). The "times" are
// deterministic virtual metrics of seeded simulations, identical on every
// machine, so the gate threshold can be tight.
inline void emit_json_row(std::ostream& os, bool& first,
                          const std::string& name, double value,
                          const char* unit) {
  if (!first) os << ",\n";
  first = false;
  os << "    {\"name\": \"" << name << "\", \"run_type\": \"iteration\", "
     << "\"iterations\": 1, \"real_time\": " << value << ", \"cpu_time\": "
     << value << ", \"time_unit\": \"" << unit << "\"}";
}

inline void print_json(const std::string& rows) {
  std::cout << "{\n  \"context\": {\"virtual_time\": true},\n"
            << "  \"benchmarks\": [\n" << rows << "\n  ]\n}\n";
}

}  // namespace rbcast::bench
