#include "trace/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <sstream>
#include <vector>

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
  const auto& backlog =
      f.metrics->queue_backlogs()[static_cast<std::size_t>(head.value)];
  EXPECT_GE(backlog.latest, 0);
  EXPECT_LE(backlog.latest, backlog.max);
  EXPECT_EQ(sim::to_seconds(backlog.max),
            f.metrics->max_queue_backlog_seconds(head));
  // A server nothing was queued on has seen no backlog at all.
  const ServerId other = f.wan.cluster_head_server[1];
  EXPECT_EQ(f.metrics->queue_backlogs()[static_cast<std::size_t>(
                                            other.value)]
                .latest,
            Metrics::kNever);
  EXPECT_EQ(f.metrics->max_queue_backlog_seconds(kNoServer), 0.0);

  // reset() restarts the max but keeps the latest observation.
  f.metrics->reset();
  EXPECT_EQ(f.metrics->max_queue_backlog_seconds(head), 0.0);
  EXPECT_GE(f.metrics->queue_backlogs()[static_cast<std::size_t>(head.value)]
                .latest,
            0);
}

TEST(Metrics, SaturatedTrunkIsAtMostFullyBusy) {
  Fixture f;
  // 10 x 5000 B queue about 7 s of wire time on the 56 kbit/s trunk at
  // t = 0; after 1 s only the part already clocked out counts.
  for (int i = 0; i < 10; ++i) f.send(HostId{0}, HostId{2}, "data", 5000);
  f.sim.run_until(sim::seconds(1));
  const LinkId trunk = f.wan.trunks[0];
  EXPECT_LE(f.metrics->link_utilization(trunk), 1.0);
  EXPECT_GT(f.metrics->link_utilization(trunk), 0.9);
  EXPECT_EQ(f.metrics->busiest_trunk(), trunk);
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

// The first-delivery bookkeeping as two ordered maps, the straightforward
// shape the row store must match query for query.
struct ReferenceMetrics {
  std::map<Seq, sim::TimePoint> broadcast_at;
  std::map<Seq, std::map<int, sim::TimePoint>> first;  // seq -> host -> time

  void record_delivery(int host, Seq seq, sim::TimePoint now) {
    first[seq].emplace(host, now);  // keeps the first one
  }
  double delivery_latency(int host, Seq seq) const {
    const auto b = broadcast_at.find(seq);
    const auto f = first.find(seq);
    if (b == broadcast_at.end() || f == first.end()) return -1.0;
    const auto at = f->second.find(host);
    return at == f->second.end() ? -1.0
                                 : sim::to_seconds(at->second - b->second);
  }
  std::size_t delivered_count(Seq seq) const {
    const auto f = first.find(seq);
    return f == first.end() ? 0 : f->second.size();
  }
  std::vector<double> latencies_between(Seq lo, Seq hi) const {
    std::vector<double> out;
    for (const auto& [seq, hosts] : first) {
      const auto b = broadcast_at.find(seq);
      if (seq < lo || seq > hi || b == broadcast_at.end()) continue;
      for (const auto& [host, at] : hosts) {
        out.push_back(sim::to_seconds(at - b->second));
      }
    }
    return out;
  }
  std::vector<std::pair<double, double>> completion_curve(
      double bucket, std::size_t host_count) const {
    std::vector<double> times;
    for (const auto& [seq, hosts] : first) {
      if (!broadcast_at.contains(seq)) continue;
      for (const auto& [host, at] : hosts) {
        times.push_back(sim::to_seconds(at));
      }
    }
    const double expected = static_cast<double>(broadcast_at.size()) *
                            static_cast<double>(host_count);
    std::vector<std::pair<double, double>> curve;
    if (times.empty() || expected == 0) return curve;
    std::sort(times.begin(), times.end());
    std::size_t done = 0;
    for (double t = 0.0; t <= times.back() + bucket; t += bucket) {
      while (done < times.size() && times[done] <= t) ++done;
      curve.emplace_back(t, static_cast<double>(done) / expected);
    }
    return curve;
  }
  std::string latencies_csv() const {
    std::ostringstream os;
    os << "seq,host,latency_seconds\n";
    for (const auto& [seq, hosts] : first) {
      const auto b = broadcast_at.find(seq);
      if (b == broadcast_at.end()) continue;
      for (const auto& [host, at] : hosts) {
        os << seq << ',' << host << ',' << sim::to_seconds(at - b->second)
           << '\n';
      }
    }
    return os.str();
  }
};

// Random in-order, out-of-order, duplicate, never-broadcast and far-off
// seqs, with reset() mid-stream, across several row chunks: every query
// and the CSV must equal the reference model's, in the same order.
TEST(Metrics, FirstDeliveryRowsMatchAnOrderedMapModel) {
  Fixture f;
  ReferenceMetrics ref;
  std::mt19937_64 rng(7);
  const auto pick = [&rng](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  const int hosts = static_cast<int>(f.wan.topology.host_count());
  const Seq far = (Seq{1} << 40) + 1;
  Seq next = 1;
  std::vector<Seq> seen;

  const auto check = [&] {
    for (Seq seq : seen) {
      ASSERT_EQ(f.metrics->delivered_count(seq), ref.delivered_count(seq))
          << "seq " << seq;
      for (int h = 0; h < hosts; ++h) {
        ASSERT_EQ(f.metrics->delivery_latency(HostId{h}, seq),
                  ref.delivery_latency(h, seq))
            << "seq " << seq << " host " << h;
      }
    }
    EXPECT_EQ(f.metrics->delivered_count(next + 1000), 0u);
    EXPECT_EQ(f.metrics->all_latencies().values(),
              ref.latencies_between(1, ~Seq{0}));
    for (const auto& [lo, hi] : std::vector<std::pair<Seq, Seq>>{
             {0, 0}, {1, 40}, {25, 90}, {100, far}, {far, ~Seq{0}}}) {
      EXPECT_EQ(f.metrics->latencies_between(lo, hi).values(),
                ref.latencies_between(lo, hi))
          << lo << ".." << hi;
    }
    EXPECT_EQ(f.metrics->completion_curve(0.5, 4),
              ref.completion_curve(0.5, 4));
    std::ostringstream csv;
    f.metrics->write_latencies_csv(csv);
    EXPECT_EQ(csv.str(), ref.latencies_csv());
  };

  for (int step = 1; step <= 3000; ++step) {
    f.sim.run_until(f.sim.now() + sim::milliseconds(1 + pick(20)));
    const sim::TimePoint now = f.sim.now();
    Seq seq = 0;
    bool broadcast = false;
    switch (pick(8)) {
      case 0:
      case 1:
      case 2:  // the in-order stream
        seq = next++;
        broadcast = true;
        break;
      case 3:  // out of order: often a duplicate, sometimes ahead
        seq = 1 + pick(next + 5);
        broadcast = pick(6) == 0;
        break;
      case 4:  // never broadcast: deliveries only
        seq = (Seq{1} << 20) + pick(50);
        break;
      case 5:  // far off
        seq = far + pick(3) * (Seq{1} << 30);
        broadcast = pick(3) == 0;
        break;
      default:  // a recent seq
        seq = next > 4 ? next - 1 - pick(4) : 1;
        break;
    }
    seen.push_back(seq);
    if (broadcast) {
      f.metrics->record_broadcast(seq);
      ref.broadcast_at[seq] = now;
    } else {
      const int host =
          static_cast<int>(pick(static_cast<std::uint64_t>(hosts)));
      f.metrics->record_delivery(HostId{host}, seq);
      ref.record_delivery(host, seq, now);
    }
    if (step % 500 == 0) check();
    if (step == 1800) {
      f.metrics->reset();
      ref = ReferenceMetrics{};
      check();
      seen.clear();
    }
  }
  EXPECT_GT(ref.broadcast_at.size(), 64u);  // spans more than one row chunk
  check();
}

}  // namespace
}  // namespace rbcast::trace
