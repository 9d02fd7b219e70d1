// The protocol timing the scenario tests share: periods short enough that
// small topologies converge within a few virtual seconds, so the tests
// stay fast. Benchmarks and the claims gate use
// bench::default_protocol_config() instead.
#pragma once

#include "core/config.h"
#include "sim/time.h"

namespace rbcast::testing {

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

}  // namespace rbcast::testing
