#include "trace/event_log.h"

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "harness/experiment.h"
#include "net/fault_plan.h"
#include "support/fast_config.h"
#include "topo/generators.h"

namespace rbcast::trace {
namespace {

using rbcast::testing::fast_config;

// The log is an array of these records: a heap-owning member would make
// each record larger and cost a heap block per event.
static_assert(sizeof(Event) == 32 && std::is_trivially_copyable_v<Event>);

harness::ScenarioOptions fast_options() {
  harness::ScenarioOptions options;
  options.protocol = fast_config();
  options.protocol.data_bytes = 32;
  return options;
}

TEST(EventLog, RecordsDirectCalls) {
  sim::Simulator simulator;
  EventLog log(simulator);
  simulator.run_until(sim::seconds(2));
  log.on_attach_requested(HostId{1}, HostId{0}, "I.1");
  log.on_attached(HostId{1}, HostId{0});
  log.on_delivered(HostId{1}, 7);

  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.events()[0].type, EventType::kAttachRequested);
  EXPECT_EQ(log.detail(log.events()[0]), "I.1");
  EXPECT_EQ(log.events()[0].at, sim::seconds(2));
  EXPECT_EQ(log.events()[2].seq, 7u);
  EXPECT_EQ(log.count(EventType::kAttached), 1u);
  EXPECT_EQ(log.events_of(HostId{1}).size(), 3u);
  EXPECT_TRUE(log.events_of(HostId{0}).empty());
}

TEST(EventLog, DescribeIsReadable) {
  sim::Simulator simulator;
  EventLog log(simulator);
  log.on_attach_requested(HostId{2}, HostId{5}, "II.3");
  const std::string line = log.describe(log.events()[0]);
  EXPECT_NE(line.find("h2"), std::string::npos);
  EXPECT_NE(line.find("attach-requested"), std::string::npos);
  EXPECT_NE(line.find("h5"), std::string::npos);
  EXPECT_NE(line.find("II.3"), std::string::npos);
}

TEST(EventLog, AttachmentLifecycleAppearsInRealScenario) {
  harness::Experiment e(topo::make_single_cluster(3).topology,
                        fast_options());
  e.start();
  e.broadcast();
  e.run_for(sim::seconds(10));

  auto& log = e.events();
  // Both non-source hosts attached; every attach was requested first.
  EXPECT_GE(log.count(EventType::kAttached), 2u);
  EXPECT_GE(log.count(EventType::kAttachRequested),
            log.count(EventType::kAttached));
  // Every delivery produced an event (1 msg x 3 hosts incl. source).
  EXPECT_EQ(log.count(EventType::kDelivered), 3u);

  // Requests precede their completions for each host.
  for (int h = 1; h < 3; ++h) {
    const auto events = log.events_of(HostId{h});
    sim::TimePoint requested = -1;
    for (const auto& event : events) {
      if (event.type == EventType::kAttachRequested && requested < 0) {
        requested = event.at;
      }
      if (event.type == EventType::kAttached) {
        EXPECT_GE(event.at, requested);
        break;
      }
    }
  }
}

TEST(EventLog, ParentTimeoutRecordedOnCrash) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 1;
  wan.hosts_per_cluster = 3;
  wan.intra_cluster_ring = true;
  const auto built = make_clustered_wan(wan);
  harness::Experiment e(built.topology, fast_options());
  e.start();
  e.broadcast();
  e.run_for(sim::seconds(5));

  // Crash the source for a while: children must record parent timeouts.
  e.faults().host_crash_window(e.source(), sim::seconds(6),
                               sim::seconds(20));
  e.run_for(sim::seconds(15));
  EXPECT_GE(e.events().count(EventType::kParentTimeout), 1u);
}

TEST(EventLog, BetweenFiltersByTime) {
  sim::Simulator simulator;
  EventLog log(simulator);
  log.on_delivered(HostId{0}, 1);
  simulator.run_until(sim::seconds(10));
  log.on_delivered(HostId{0}, 2);
  EXPECT_EQ(log.between(0, sim::seconds(5)).size(), 1u);
  EXPECT_EQ(log.between(sim::seconds(5), sim::seconds(15)).size(), 1u);
  EXPECT_EQ(log.between(0, sim::seconds(15)).size(), 2u);
}

TEST(EventLog, DumpSummarizesDeliveries) {
  sim::Simulator simulator;
  EventLog log(simulator);
  log.on_delivered(HostId{0}, 1);
  log.on_delivered(HostId{1}, 1);
  log.on_attached(HostId{1}, HostId{0});
  std::ostringstream os;
  log.dump(os);
  EXPECT_NE(os.str().find("attached"), std::string::npos);
  EXPECT_NE(os.str().find("+ 2 delivery events"), std::string::npos);
  EXPECT_EQ(os.str().find("delivered #"), std::string::npos);

  std::ostringstream verbose;
  log.dump(verbose, /*include_deliveries=*/true);
  EXPECT_NE(verbose.str().find("delivered"), std::string::npos);
}

TEST(EventLog, GapFillEventsRecordOfferAcceptRelay) {
  sim::Simulator simulator;
  EventLog log(simulator);
  simulator.run_until(sim::seconds(3));
  log.on_gapfill_offered(HostId{0}, HostId{1}, 4);
  log.on_gapfill_accepted(HostId{1}, HostId{0}, 4);
  log.on_gapfill_relayed(HostId{1}, HostId{2}, 4);

  ASSERT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.count(EventType::kGapFillOffered), 1u);
  EXPECT_EQ(log.count(EventType::kGapFillAccepted), 1u);
  EXPECT_EQ(log.count(EventType::kGapFillRelayed), 1u);

  const Event& offered = log.events()[0];
  EXPECT_EQ(offered.host, HostId{0});
  EXPECT_EQ(offered.peer, HostId{1});
  EXPECT_EQ(offered.seq, 4u);
  EXPECT_EQ(offered.at, sim::seconds(3));

  const Event& accepted = log.events()[1];
  EXPECT_EQ(accepted.host, HostId{1});
  EXPECT_EQ(accepted.peer, HostId{0});

  EXPECT_NE(log.describe(log.events()[2]).find("gapfill-relayed"),
            std::string::npos);
}

TEST(EventLog, ToStringCoversEveryEventType) {
  for (EventType type :
       {EventType::kAttachRequested, EventType::kAttached,
        EventType::kDetached, EventType::kParentTimeout,
        EventType::kCycleBroken, EventType::kAttachTimeout,
        EventType::kNewMaxRejected, EventType::kDelivered,
        EventType::kGapFillOffered, EventType::kGapFillAccepted,
        EventType::kGapFillRelayed}) {
    const std::string name = to_string(type);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find("unknown"), std::string::npos)
        << "unnamed event type " << static_cast<int>(type);
  }
  EXPECT_STREQ(to_string(EventType::kGapFillOffered), "gapfill-offered");
  EXPECT_STREQ(to_string(EventType::kGapFillAccepted), "gapfill-accepted");
  EXPECT_STREQ(to_string(EventType::kGapFillRelayed), "gapfill-relayed");
}

TEST(EventLog, GapFillEventsAppearInLossyScenario) {
  topo::ClusteredWanOptions wan;
  wan.clusters = 4;
  wan.hosts_per_cluster = 2;
  wan.expensive.loss_probability = 0.2;
  harness::Experiment e(make_clustered_wan(wan).topology, fast_options());
  e.start();
  e.broadcast_stream(5, sim::milliseconds(400), sim::seconds(1));
  e.run_until_delivered(sim::seconds(120));
  ASSERT_TRUE(e.all_delivered());

  auto& log = e.events();
  // 20% trunk loss on a 4-cluster run must exercise the repair path, and
  // every accepted fill arrived as either an offer or a relay.
  EXPECT_GT(log.count(EventType::kGapFillOffered), 0u);
  EXPECT_GT(log.count(EventType::kGapFillAccepted), 0u);
  EXPECT_GE(log.count(EventType::kGapFillOffered) +
                log.count(EventType::kGapFillRelayed),
            log.count(EventType::kGapFillAccepted));
}

TEST(EventLog, RecordsSpanChunksInOrder) {
  sim::Simulator simulator;
  EventLog log(simulator);
  const std::size_t n = 2 * EventLog::kChunkEvents + 5;
  for (std::size_t i = 0; i < n; ++i) log.on_delivered(HostId{0}, i + 1);
  log.on_attach_requested(HostId{1}, HostId{0}, "I.1");
  log.on_attach_requested(HostId{2}, HostId{0}, "I.1");

  ASSERT_EQ(log.events().size(), n + 2);
  util::Seq expected = 1;
  for (const Event& e : log.events()) {
    if (e.type != EventType::kDelivered) break;
    EXPECT_EQ(e.seq, expected++);
  }
  EXPECT_EQ(expected, n + 1);
  EXPECT_EQ(log.events()[EventLog::kChunkEvents].seq,
            EventLog::kChunkEvents + 1);
  // Both requests share one interned detail.
  EXPECT_EQ(log.events()[n].detail, log.events()[n + 1].detail);
  EXPECT_EQ(log.detail(log.events()[n + 1]), "I.1");

  // A cleared log records afresh into the chunks it kept.
  log.clear();
  log.on_delivered(HostId{3}, 9);
  ASSERT_EQ(log.events().size(), 1u);
  EXPECT_EQ(log.events()[0].host, HostId{3});
  EXPECT_EQ(log.detail(log.events()[0]), "");
}

TEST(EventLog, ClearEmpties) {
  sim::Simulator simulator;
  EventLog log(simulator);
  log.on_delivered(HostId{0}, 1);
  log.clear();
  EXPECT_TRUE(log.events().empty());
}

}  // namespace
}  // namespace rbcast::trace
