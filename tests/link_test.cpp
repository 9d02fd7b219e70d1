#include "net/link.h"

#include <gtest/gtest.h>

namespace rbcast::net {
namespace {

topo::LinkSpec make_spec(double loss = 0.0, double dup = 0.0) {
  topo::LinkParams params = topo::LinkParams::cheap_defaults();
  params.loss_probability = loss;
  params.duplication_probability = dup;
  params.propagation_delay = sim::milliseconds(2);
  params.bandwidth_bytes_per_sec = 1000.0;  // 1 byte per ms: easy arithmetic
  return topo::LinkSpec{.id = LinkId{0},
                        .a = ServerId{0},
                        .b = ServerId{1},
                        .link_class = topo::LinkClass::kCheap,
                        .params = params};
}

TEST(LinkState, CleanTransmitArrivesAfterTxPlusPropagation) {
  const auto spec = make_spec();
  LinkState link(spec, util::Rng(1));
  const auto r = link.transmit(100, 0, 0);
  EXPECT_EQ(r.copies, 1);
  EXPECT_EQ(r.queue_wait, 0);
  EXPECT_EQ(r.tx_time, sim::milliseconds(100));
  EXPECT_EQ(r.arrival_offset[0], sim::milliseconds(102));
}

TEST(LinkState, BackToBackTransmitsSerialize) {
  const auto spec = make_spec();
  LinkState link(spec, util::Rng(1));
  const auto first = link.transmit(100, 0, 0);
  const auto second = link.transmit(100, 0, 0);
  EXPECT_EQ(first.queue_wait, 0);
  // The second message waits for the first to clock out.
  EXPECT_EQ(second.queue_wait, sim::milliseconds(100));
  EXPECT_EQ(second.arrival_offset[0], sim::milliseconds(202));
}

TEST(LinkState, DirectionsHaveIndependentQueues) {
  const auto spec = make_spec();
  LinkState link(spec, util::Rng(1));
  link.transmit(100, 0, 0);
  const auto reverse = link.transmit(100, 1, 0);
  EXPECT_EQ(reverse.queue_wait, 0);
}

TEST(LinkState, QueueDrainsOverTime) {
  const auto spec = make_spec();
  LinkState link(spec, util::Rng(1));
  link.transmit(100, 0, 0);  // wire busy until t = 100 ms
  const auto later = link.transmit(100, 0, sim::milliseconds(150));
  EXPECT_EQ(later.queue_wait, 0);
}

TEST(LinkState, CertainLossYieldsZeroCopiesButOccupiesWire) {
  const auto spec = make_spec(/*loss=*/1.0);
  LinkState link(spec, util::Rng(1));
  const auto r = link.transmit(100, 0, 0);
  EXPECT_EQ(r.copies, 0);
  // A following message still queues behind the doomed one.
  const auto next = link.transmit(100, 0, 0);
  EXPECT_EQ(next.queue_wait, sim::milliseconds(100));
}

TEST(LinkState, CertainDuplicationYieldsTwoStaggeredCopies) {
  const auto spec = make_spec(/*loss=*/0.0, /*dup=*/1.0);
  LinkState link(spec, util::Rng(1));
  const auto r = link.transmit(100, 0, 0);
  EXPECT_EQ(r.copies, 2);
  EXPECT_EQ(r.arrival_offset[0], sim::milliseconds(102));
  EXPECT_EQ(r.arrival_offset[1], sim::milliseconds(202));
}

TEST(LinkState, LossRateIsApproximatelyHonored) {
  const auto spec = make_spec(/*loss=*/0.25);
  LinkState link(spec, util::Rng(7));
  int lost = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    // Transmit far apart so queueing never matters.
    const auto r = link.transmit(1, 0, static_cast<sim::TimePoint>(i) *
                                           sim::seconds(1));
    if (r.copies == 0) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.25, 0.03);
}

TEST(LinkState, UpDownFlagIsHonoredByCaller) {
  const auto spec = make_spec();
  LinkState link(spec, util::Rng(1));
  EXPECT_TRUE(link.up());
  link.set_up(false);
  EXPECT_FALSE(link.up());
  link.set_up(true);
  EXPECT_TRUE(link.up());
}

TEST(LinkState, ChargesFramingOnEveryTransmit) {
  const auto spec = make_spec();
  LinkState link(spec, util::Rng(1), /*overhead_bytes=*/28);
  const auto r = link.transmit(100, 0, 0);
  EXPECT_EQ(r.tx_time, sim::milliseconds(128));
  EXPECT_EQ(r.arrival_offset[0], sim::milliseconds(130));
}

TEST(LinkState, WireTimeCountsOnlyTheElapsedPart) {
  const auto spec = make_spec();
  LinkState link(spec, util::Rng(1));
  link.transmit(100, 0, 0);
  link.transmit(100, 0, 0);  // booked: [0, 200 ms) without a break
  EXPECT_EQ(link.wire_time(0, 0), 0);
  EXPECT_EQ(link.wire_time(0, sim::milliseconds(150)), sim::milliseconds(150));
  EXPECT_EQ(link.wire_time(0, sim::seconds(5)), sim::milliseconds(200));
  EXPECT_EQ(link.wire_time(1, sim::seconds(5)), 0);  // per direction
}

TEST(LinkState, DuplicatedCopyBooksTwoWireSlots) {
  const auto spec = make_spec(/*loss=*/0.0, /*dup=*/1.0);
  LinkState link(spec, util::Rng(1));
  const auto r = link.transmit(100, 0, 0);
  ASSERT_EQ(r.copies, 2);
  EXPECT_EQ(link.queue_backlog(0, 0), 2 * r.tx_time);
  EXPECT_EQ(link.wire_time(0, sim::seconds(5)), 2 * r.tx_time);
}

TEST(LinkState, DirectionFromMapsEndpoints) {
  const auto spec = make_spec();
  LinkState link(spec, util::Rng(1));
  EXPECT_EQ(link.direction_from(ServerId{0}), 0);
  EXPECT_EQ(link.direction_from(ServerId{1}), 1);
}

TEST(LinkState, MinimumTransmissionTimeIsOneTick) {
  topo::LinkParams params = topo::LinkParams::cheap_defaults();
  params.bandwidth_bytes_per_sec = 1e12;  // absurdly fast
  topo::LinkSpec spec{.id = LinkId{0},
                      .a = ServerId{0},
                      .b = ServerId{1},
                      .link_class = topo::LinkClass::kCheap,
                      .params = params};
  EXPECT_GE(spec.transmission_time(1), 1);
}

}  // namespace
}  // namespace rbcast::net
