// The one tuning source: Config::for_size(n) and util::scaled. Pins the
// profile the experiment benches run, field by field, so a change to it
// shows up here as well as in bench_outputs_gate.
#include "core/config.h"

#include <gtest/gtest.h>

#include <cstddef>

namespace rbcast::core {
namespace {

using util::milliseconds;
using util::seconds;

// Every Config field, so a profile cannot change one unnoticed.
void expect_same(const Config& got, const Config& want) {
  EXPECT_EQ(got.attach_period, want.attach_period);
  EXPECT_EQ(got.info_period_intra, want.info_period_intra);
  EXPECT_EQ(got.info_period_inter, want.info_period_inter);
  EXPECT_EQ(got.gapfill_period_neighbor, want.gapfill_period_neighbor);
  EXPECT_EQ(got.gapfill_period_far, want.gapfill_period_far);
  EXPECT_EQ(got.parent_timeout, want.parent_timeout);
  EXPECT_EQ(got.attach_ack_timeout, want.attach_ack_timeout);
  EXPECT_EQ(got.attach_retry_burst, want.attach_retry_burst);
  EXPECT_EQ(got.child_timeout, want.child_timeout);
  EXPECT_EQ(got.gapfill_burst, want.gapfill_burst);
  EXPECT_EQ(got.gapfill_suppress_period, want.gapfill_suppress_period);
  EXPECT_EQ(got.attach_backfill_burst, want.attach_backfill_burst);
  EXPECT_EQ(got.parent_switch_margin, want.parent_switch_margin);
  EXPECT_EQ(got.nonneighbor_gapfill, want.nonneighbor_gapfill);
  EXPECT_EQ(got.far_fill_targets, want.far_fill_targets);
  EXPECT_EQ(got.enable_pruning, want.enable_pruning);
  EXPECT_EQ(got.piggyback_info, want.piggyback_info);
  EXPECT_EQ(got.auth_enabled, want.auth_enabled);
  EXPECT_EQ(got.auth_secret, want.auth_secret);
  EXPECT_EQ(got.cluster_knowledge, want.cluster_knowledge);
  EXPECT_EQ(got.batch_flush_delay, want.batch_flush_delay);
  EXPECT_EQ(got.batch_max_bytes, want.batch_max_bytes);
  EXPECT_EQ(got.data_bytes, want.data_bytes);
}

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
    expect_same(Config::for_size(n), bench_profile());
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
    expect_same(Config::for_size(c.hosts), want);
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
