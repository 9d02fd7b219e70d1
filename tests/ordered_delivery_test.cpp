#include "core/ordered_delivery.h"

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast::core {
namespace {

using rbcast::testing::fast_config;

struct Capture {
  std::vector<util::Seq> out;
  OrderedDeliveryAdapter adapter{[this](util::Seq s, std::string_view) {
    out.push_back(s);
  }};
};

TEST(OrderedDelivery, InOrderPassesThroughImmediately) {
  Capture c;
  c.adapter.on_message(1, "a");
  c.adapter.on_message(2, "b");
  c.adapter.on_message(3, "c");
  EXPECT_EQ(c.out, (std::vector<util::Seq>{1, 2, 3}));
  EXPECT_EQ(c.adapter.buffered(), 0u);
  EXPECT_EQ(c.adapter.next_expected(), 4u);
}

TEST(OrderedDelivery, HoldsBackUntilGapFills) {
  Capture c;
  c.adapter.on_message(2, "b");
  c.adapter.on_message(3, "c");
  EXPECT_TRUE(c.out.empty());
  EXPECT_EQ(c.adapter.buffered(), 2u);

  c.adapter.on_message(1, "a");
  EXPECT_EQ(c.out, (std::vector<util::Seq>{1, 2, 3}));
  EXPECT_EQ(c.adapter.buffered(), 0u);
}

TEST(OrderedDelivery, InterleavedGapsReleaseInWaves) {
  Capture c;
  c.adapter.on_message(2, "b");
  c.adapter.on_message(5, "e");
  c.adapter.on_message(1, "a");  // releases 1, 2
  EXPECT_EQ(c.out, (std::vector<util::Seq>{1, 2}));
  c.adapter.on_message(4, "d");
  EXPECT_EQ(c.out.size(), 2u);   // 3 still missing
  c.adapter.on_message(3, "c");  // releases 3, 4, 5
  EXPECT_EQ(c.out, (std::vector<util::Seq>{1, 2, 3, 4, 5}));
}

TEST(OrderedDelivery, TracksMaxBufferOccupancy) {
  Capture c;
  for (util::Seq q = 10; q >= 2; --q) c.adapter.on_message(q, "x");
  EXPECT_EQ(c.adapter.max_buffered(), 9u);
  c.adapter.on_message(1, "x");
  EXPECT_EQ(c.adapter.buffered(), 0u);
  EXPECT_EQ(c.adapter.max_buffered(), 9u);
  EXPECT_EQ(c.adapter.released(), 10u);
}

TEST(OrderedDelivery, RejectsNullDownstream) {
  EXPECT_THROW(OrderedDeliveryAdapter(nullptr), std::invalid_argument);
}

TEST(OrderedDelivery, EndToEndThroughExperiment) {
  // Lossy WAN: receipts are out of order, the application must still see
  // 1, 2, 3, ... at every host.
  topo::ClusteredWanOptions wan;
  wan.clusters = 2;
  wan.hosts_per_cluster = 2;
  wan.expensive.loss_probability = 0.2;

  harness::ScenarioOptions options;
  options.ordered_delivery = true;
  options.protocol = fast_config();
  options.protocol.data_bytes = 32;
  options.seed = 31;

  harness::Experiment e(make_clustered_wan(wan).topology, options);
  e.start();
  e.broadcast_stream(15, sim::milliseconds(300), sim::seconds(1));
  e.run_until_delivered(sim::seconds(300));
  ASSERT_TRUE(e.all_delivered());

  for (HostId h : e.topology().host_ids()) {
    if (h == e.source()) continue;
    auto& adapter = e.ordered_adapter(h);
    EXPECT_EQ(adapter.released(), 15u) << h;
    EXPECT_EQ(adapter.buffered(), 0u) << h;
    EXPECT_EQ(adapter.next_expected(), 16u) << h;
  }
}

}  // namespace
}  // namespace rbcast::core
