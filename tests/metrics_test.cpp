#include "trace/metrics.h"

#include <gtest/gtest.h>

#include <sstream>

#include "topo/generators.h"

namespace rbcast::trace {
namespace {

struct Fixture {
  sim::Simulator sim;
  util::RngFactory rngs{1};
  topo::Wan wan;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<Metrics> metrics;

  Fixture() {
    topo::ClusteredWanOptions options;
    options.clusters = 2;
    options.hosts_per_cluster = 2;
    wan = make_clustered_wan(options);
    network = std::make_unique<net::Network>(sim, wan.topology,
                                             net::NetConfig{}, rngs);
    metrics = std::make_unique<Metrics>(sim, *network);
    metrics->attach();
    for (const auto& h : wan.topology.hosts()) {
      network->register_host(h.id, [](const net::Delivery&) {});
    }
  }

  void send(HostId from, HostId to, const std::string& kind,
            std::size_t bytes = 100) {
    network->send(from, to, std::any(std::string("payload")), bytes, kind);
  }
};

TEST(Metrics, CountsSendsByKind) {
  Fixture f;
  f.send(HostId{0}, HostId{1}, "data");
  f.send(HostId{0}, HostId{1}, "data");
  f.send(HostId{0}, HostId{1}, "info", 40);
  EXPECT_EQ(f.metrics->counter("send.data"), 2u);
  EXPECT_EQ(f.metrics->counter("send.info"), 1u);
  EXPECT_EQ(f.metrics->counter("send_bytes.data"), 200u);
}

TEST(Metrics, ClassifiesInterClusterSends) {
  Fixture f;
  f.send(HostId{0}, HostId{1}, "data");  // intra (hosts 0,1 in cluster 0)
  f.send(HostId{0}, HostId{2}, "data");  // inter (host 2 in cluster 1)
  f.send(HostId{0}, HostId{2}, "gapfill");
  f.send(HostId{0}, HostId{2}, "info", 40);
  EXPECT_EQ(f.metrics->counter("send.intercluster.data"), 1u);
  EXPECT_EQ(f.metrics->intercluster_data_sends(), 2u);
  EXPECT_EQ(f.metrics->intercluster_control_sends(), 1u);
}

TEST(Metrics, InterClusterClassificationTracksLinkState) {
  Fixture f;
  // Split cluster 0 by downing its internal cheap trunk: hosts 0 and 1 are
  // then in different ground-truth clusters.
  for (const auto& l : f.wan.topology.links()) {
    if (!l.is_access && l.link_class == topo::LinkClass::kCheap) {
      f.network->set_link_up(l.id, false);
    }
  }
  f.send(HostId{0}, HostId{1}, "data");
  EXPECT_EQ(f.metrics->counter("send.intercluster.data"), 1u);
}

TEST(Metrics, DeliverAndTransmitCounters) {
  Fixture f;
  f.send(HostId{0}, HostId{2}, "data");
  f.sim.run_until(sim::seconds(5));
  EXPECT_EQ(f.metrics->counter("deliver.data"), 1u);
  EXPECT_EQ(f.metrics->counter("link.expensive"), 1u);
  EXPECT_EQ(f.metrics->counter_prefix_sum("drop."), 0u);
}

TEST(Metrics, DropCountersByReason) {
  Fixture f;
  f.network->set_link_up(f.wan.trunks[0], false);
  f.send(HostId{0}, HostId{2}, "data");
  f.sim.run_until(sim::seconds(2));
  EXPECT_GE(f.metrics->counter_prefix_sum("drop."), 1u);
}

TEST(Metrics, LatencyBookkeeping) {
  Fixture f;
  f.metrics->record_broadcast(1);
  f.sim.run_until(sim::milliseconds(250));
  f.metrics->record_delivery(HostId{1}, 1);
  EXPECT_NEAR(f.metrics->delivery_latency(HostId{1}, 1), 0.25, 1e-9);
  EXPECT_LT(f.metrics->delivery_latency(HostId{2}, 1), 0.0);  // not delivered
  EXPECT_EQ(f.metrics->delivered_count(1), 1u);

  // First delivery wins; a duplicate later must not move the clock.
  f.sim.run_until(sim::seconds(1));
  f.metrics->record_delivery(HostId{1}, 1);
  EXPECT_NEAR(f.metrics->delivery_latency(HostId{1}, 1), 0.25, 1e-9);
}

// Out-of-order first deliveries: the first one per (host, seq) wins, the
// count is per seq, and both exports read seq-major, host-ascending.
TEST(Metrics, FirstDeliveriesKeepTheirTimesCountsAndOrder) {
  Fixture f;
  f.metrics->record_broadcast(2);
  f.metrics->record_broadcast(1);
  f.sim.run_until(sim::milliseconds(100));
  f.metrics->record_delivery(HostId{3}, 2);
  f.metrics->record_delivery(HostId{2}, 1);
  f.sim.run_until(sim::milliseconds(200));
  f.metrics->record_delivery(HostId{0}, 2);
  f.metrics->record_delivery(HostId{3}, 2);  // duplicate: ignored
  f.sim.run_until(sim::milliseconds(400));
  f.metrics->record_delivery(HostId{1}, 2);
  f.metrics->record_delivery(HostId{2}, 1);  // duplicate: ignored
  EXPECT_EQ(f.metrics->delivered_count(1), 1u);
  EXPECT_EQ(f.metrics->delivered_count(2), 3u);
  EXPECT_EQ(f.metrics->delivered_count(3), 0u);
  EXPECT_NEAR(f.metrics->delivery_latency(HostId{3}, 2), 0.1, 1e-9);
  EXPECT_NEAR(f.metrics->delivery_latency(HostId{2}, 1), 0.1, 1e-9);
  EXPECT_LT(f.metrics->delivery_latency(kNoHost, 2), 0.0);
  EXPECT_THROW(f.metrics->record_delivery(kNoHost, 2), std::invalid_argument);
  EXPECT_THROW(f.metrics->record_delivery(HostId{4}, 2),
               std::invalid_argument);
  EXPECT_EQ(f.metrics->delivered_count(2), 3u);

  std::ostringstream csv;
  f.metrics->write_latencies_csv(csv);
  EXPECT_EQ(csv.str(),
            "seq,host,latency_seconds\n"
            "1,2,0.1\n"
            "2,0,0.2\n"
            "2,1,0.4\n"
            "2,3,0.1\n");
  const util::Samples all = f.metrics->all_latencies();
  EXPECT_EQ(all.values(), (std::vector<double>{0.1, 0.2, 0.4, 0.1}));
}

// A far-off (say forged) seq costs one entry like any other, and the seqs
// around it stay unrecorded.
TEST(Metrics, FarOffSeqCostsOneEntry) {
  Fixture f;
  const Seq far = (Seq{1} << 40) + 3;
  f.metrics->record_broadcast(far);
  f.sim.run_until(sim::milliseconds(50));
  f.metrics->record_delivery(HostId{1}, far);
  EXPECT_EQ(f.metrics->delivered_count(far), 1u);
  EXPECT_EQ(f.metrics->delivered_count(far - 1), 0u);
  EXPECT_NEAR(f.metrics->delivery_latency(HostId{1}, far), 0.05, 1e-9);
  EXPECT_EQ(f.metrics->all_latencies().count(), 1u);
}

TEST(Metrics, LatencySamplesFilterBySeqRange) {
  Fixture f;
  f.metrics->record_broadcast(1);
  f.metrics->record_broadcast(2);
  f.sim.run_until(sim::milliseconds(100));
  f.metrics->record_delivery(HostId{1}, 1);
  f.sim.run_until(sim::milliseconds(300));
  f.metrics->record_delivery(HostId{1}, 2);

  EXPECT_EQ(f.metrics->all_latencies().count(), 2u);
  const auto only_second = f.metrics->latencies_between(2, 2);
  ASSERT_EQ(only_second.count(), 1u);
  EXPECT_NEAR(only_second.mean(), 0.3, 1e-9);
}

TEST(Metrics, QueueBacklogPerServer) {
  Fixture f;
  // Saturate the trunk out of host 0's cluster head with large messages.
  for (int i = 0; i < 10; ++i) f.send(HostId{0}, HostId{2}, "data", 5000);
  f.sim.run_until(sim::seconds(30));
  const ServerId head = f.wan.cluster_head_server[0];
  EXPECT_GT(f.metrics->max_queue_backlog_seconds(head), 0.0);
  EXPECT_GT(f.metrics->queue_backlog(head).count(), 0u);
}

TEST(Metrics, LinkUtilizationAccumulatesWireTime) {
  Fixture f;
  const LinkId trunk = f.wan.trunks[0];
  EXPECT_EQ(f.metrics->link_busy_time(trunk), 0);
  EXPECT_EQ(f.metrics->link_utilization(trunk), 0.0);

  // One 700-byte message over the 56 kbit/s trunk = 100 ms of wire time.
  f.send(HostId{0}, HostId{2}, "data", 700);
  f.sim.run_until(sim::seconds(10));
  EXPECT_NEAR(sim::to_seconds(f.metrics->link_busy_time(trunk)), 0.1, 0.01);
  EXPECT_NEAR(f.metrics->link_utilization(trunk), 0.01, 0.002);
  EXPECT_EQ(f.metrics->busiest_trunk(), trunk);
}

TEST(Metrics, UtilizationWindowRestartsOnReset) {
  Fixture f;
  f.send(HostId{0}, HostId{2}, "data", 700);
  f.sim.run_until(sim::seconds(10));
  f.metrics->reset();
  EXPECT_EQ(f.metrics->link_busy_time(f.wan.trunks[0]), 0);
  EXPECT_FALSE(f.metrics->busiest_trunk().valid());
  // New window: one message in one second is ~10% utilization.
  f.send(HostId{0}, HostId{2}, "data", 700);
  f.sim.run_until(sim::seconds(11));
  EXPECT_NEAR(f.metrics->link_utilization(f.wan.trunks[0]), 0.1, 0.02);
}

TEST(Metrics, CompletionCurveIsMonotoneAndEndsAtFraction) {
  Fixture f;
  // Two messages, 3 hosts expected each (host_count param = 3).
  f.metrics->record_broadcast(1);
  f.metrics->record_broadcast(2);
  f.metrics->record_delivery(HostId{0}, 1);  // t = 0
  f.sim.run_until(sim::seconds(7));
  f.metrics->record_delivery(HostId{1}, 1);
  f.sim.run_until(sim::seconds(12));
  f.metrics->record_delivery(HostId{0}, 2);

  const auto curve = f.metrics->completion_curve(5.0, 3);
  ASSERT_GE(curve.size(), 3u);
  // Monotone non-decreasing.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GT(curve[i].first, curve[i - 1].first);
  }
  // 3 of 6 expected deliveries happened.
  EXPECT_NEAR(curve.back().second, 0.5, 1e-9);
  // At t=5: only the first delivery (t=0) counted.
  EXPECT_NEAR(curve[1].second, 1.0 / 6.0, 1e-9);
}

TEST(Metrics, CompletionCurveEmptyWithoutDeliveries) {
  Fixture f;
  EXPECT_TRUE(f.metrics->completion_curve(1.0, 3).empty());
  EXPECT_THROW(f.metrics->completion_curve(0.0, 3), std::invalid_argument);
}

TEST(Metrics, CsvExports) {
  Fixture f;
  f.send(HostId{0}, HostId{1}, "data");
  f.metrics->record_broadcast(1);
  f.sim.run_until(sim::milliseconds(500));
  f.metrics->record_delivery(HostId{1}, 1);

  std::ostringstream counters;
  f.metrics->write_counters_csv(counters);
  EXPECT_NE(counters.str().find("name,value"), std::string::npos);
  EXPECT_NE(counters.str().find("send.data,1"), std::string::npos);

  std::ostringstream latencies;
  f.metrics->write_latencies_csv(latencies);
  EXPECT_NE(latencies.str().find("seq,host,latency_seconds"),
            std::string::npos);
  EXPECT_NE(latencies.str().find("1,1,0.5"), std::string::npos);
}

TEST(Metrics, ResetClearsEverything) {
  Fixture f;
  f.send(HostId{0}, HostId{1}, "data");
  f.metrics->record_broadcast(1);
  f.metrics->reset();
  EXPECT_EQ(f.metrics->counter_prefix_sum(""), 0u);
  EXPECT_EQ(f.metrics->all_latencies().count(), 0u);
}

}  // namespace
}  // namespace rbcast::trace
