// One run of a workload: set up, measure, census.
//
// The untraced run is what users run: harness::Experiment on the
// simulator. The traced run builds the same wiring by hand with the
// decorators of decorators.h in the seams and drives the simulator through
// Simulator::step(), one sim.step span per event. main.cpp checks that
// both runs did the same work.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "decorators.h"
#include "tracer.h"
#include "util/stats.h"
#include "workloads.h"

namespace perfbench {

struct RunResult {
  double setup_s{0.0};
  // Measured phase: start() until every host holds every message (or the
  // deadline passed).
  double wall_s{0.0};
  double cpu_s{0.0};
  std::uint64_t allocs{0};

  // Census over (host, message) pairs, the source excluded.
  std::uint64_t delivered{0};
  // Broadcast to first receipt, virtual seconds.
  rbcast::util::Samples delays_s;
  // First receipts the protocol reported (EventLog kDelivered), the
  // source's own included; a complete exactly-once run has
  // delivered + messages of them.
  std::uint64_t delivered_events{0};

  std::uint64_t digest{0};  // EventLog::digest()
  // trace::Metrics counters: host sends, bytes, drops, link transmissions
  // by kind.
  std::map<std::string, std::uint64_t> net_counters;
  std::uint64_t duplicates_discarded{0};
  // Traced run: delivered bodies that differ from the source's.
  std::uint64_t bad_bodies{0};
};

// What the traced run records into.
struct Traced {
  Tracer& tracer;
  TraceCounts& counts;
};

// `setup_only` builds and tears down the wiring without running it (extra
// set-up time samples).
[[nodiscard]] RunResult run_untraced(const Inputs& in, bool setup_only);
[[nodiscard]] RunResult run_traced(const Inputs& in, Traced traced);

}  // namespace perfbench
