// The protocol timing the simulated tests share. Experiment benches and
// claims_test use core::Config::for_size(n) instead; perfbench, the pinned
// determinism digests, chaos and rbcast_sim run the paper's defaults,
// Config{}.
#pragma once

#include "core/config.h"
#include "sim/time.h"

namespace rbcast::testing {

// Scenario tests over a simulated WAN: periods short enough that small
// topologies converge within a few virtual seconds.
inline core::Config fast_config() {
  core::Config c;
  c.attach_period = sim::milliseconds(500);
  c.info_period_intra = sim::milliseconds(200);
  c.info_period_inter = sim::seconds(1);
  c.gapfill_period_neighbor = sim::milliseconds(500);
  c.gapfill_period_far = sim::seconds(2);
  c.parent_timeout = sim::seconds(4);
  c.attach_ack_timeout = sim::milliseconds(400);
  c.data_bytes = 64;
  return c;
}

// Automaton tests over a FakeHub, whose links deliver in about a
// millisecond: every period shorter still.
inline core::Config hub_config() {
  core::Config c;
  c.attach_period = sim::milliseconds(100);
  c.info_period_intra = sim::milliseconds(50);
  c.info_period_inter = sim::milliseconds(200);
  c.gapfill_period_neighbor = sim::milliseconds(100);
  c.gapfill_period_far = sim::milliseconds(300);
  c.parent_timeout = sim::seconds(1);
  c.attach_ack_timeout = sim::milliseconds(100);
  c.child_timeout = sim::seconds(3);
  c.data_bytes = 16;
  return c;
}

}  // namespace rbcast::testing
