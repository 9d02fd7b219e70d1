// The one tuning source: Config::for_size(n) and util::scaled. Pins the
// profile the experiment benches run, compared as a whole Config, so a
// change to any field shows up here as well as in bench_outputs_gate.
#include "core/config.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <ostream>

#include "trace/trace_sink.h"

namespace rbcast::core {

// A failing EXPECT_EQ prints both Configs by field name.
void PrintTo(const Config& config, std::ostream* os) {
  *os << trace::describe_config(config);
}

namespace {

using util::milliseconds;
using util::seconds;

// The mid-range bench timing, written out: the paper's defaults with
// these eight fields set.
Config bench_profile() {
  Config c;
  c.attach_period = seconds(1);
  c.info_period_intra = milliseconds(500);
  c.info_period_inter = seconds(2);
  c.gapfill_period_neighbor = seconds(1);
  c.gapfill_period_far = seconds(4);
  c.parent_timeout = seconds(6);
  c.attach_ack_timeout = seconds(2);
  c.data_bytes = 256;
  return c;
}

TEST(ConfigForSize, UpToSixteenHostsIsTheUnscaledBenchProfile) {
  for (std::size_t n : {0u, 1u, 16u}) {
    SCOPED_TRACE(n);
    EXPECT_EQ(Config::for_size(n), bench_profile());
  }
}

TEST(ConfigForSize, BeyondSixteenHostsStretchesOnlyTheInterClusterPeriods) {
  struct Case {
    std::size_t hosts;
    util::Duration info_inter;  // 2 s x hosts/16
    util::Duration far_fill;    // 4 s x hosts/16
  };
  for (const Case& c : {Case{24, milliseconds(3000), seconds(6)},
                        Case{64, seconds(8), seconds(16)}}) {
    SCOPED_TRACE(c.hosts);
    Config want = bench_profile();
    want.info_period_inter = c.info_inter;
    want.gapfill_period_far = c.far_fill;
    EXPECT_EQ(Config::for_size(c.hosts), want);
  }
}

TEST(Scaled, TruncatesToWholeTicks) {
  EXPECT_EQ(util::scaled(seconds(2), 1.5), seconds(3));
  EXPECT_EQ(util::scaled(seconds(4), 0.25), seconds(1));
  EXPECT_EQ(util::scaled(10, 0.29), 2);  // 2.9 us
  EXPECT_EQ(util::scaled(7, 1.0), 7);
}

TEST(Scaled, NeverReturnsLessThanOneTick) {
  EXPECT_EQ(util::scaled(3, 0.1), 1);     // 0.3 us
  EXPECT_EQ(util::scaled(999, 0.001), 1);  // 0.999 us
  EXPECT_EQ(util::scaled(seconds(1), 0.0), 1);
}

}  // namespace
}  // namespace rbcast::core
