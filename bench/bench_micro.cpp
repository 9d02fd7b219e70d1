// E12 — micro-benchmarks of the substrates (google-benchmark).
//
// Not a paper experiment: these quantify the cost of the building blocks
// (INFO-set operations, event queue, the transport coalescer, the body
// store, routing recompute, full simulation throughput) so that scenario
// wall-times are explainable.
//
// This binary is also the repo's perf gate: CI runs it with
// --benchmark_format=json and tools/bench_compare.py checks the result
// against the committed BENCH_micro.json baseline (see DESIGN.md §8).
// The SeqSet workloads are deliberately split into dense (few intervals,
// millions of elements — where interval-native algorithms must be
// O(intervals), not O(elements)), sparse (many small intervals) and
// adversarial (maximally fragmented, worst-case coalescing) shapes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rbcast.h"
#include "transport/coalescer.h"

namespace {

using namespace rbcast;

// --- SeqSet: insertion ---------------------------------------------------

void BM_SeqSetInsertSequential(benchmark::State& state) {
  for (auto _ : state) {
    util::SeqSet s;
    for (util::Seq q = 1; q <= static_cast<util::Seq>(state.range(0)); ++q) {
      s.insert(q);
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqSetInsertSequential)->Arg(1000)->Arg(10000);

void BM_SeqSetInsertWithGaps(benchmark::State& state) {
  for (auto _ : state) {
    util::SeqSet s;
    for (util::Seq q = 1; q <= static_cast<util::Seq>(state.range(0)); ++q) {
      if (q % 7 != 0) s.insert(q);  // persistent fragmentation
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqSetInsertWithGaps)->Arg(1000)->Arg(10000);

// Bulk range insertion: blocks of `kBlock` arriving out of order, the shape
// of attach-time back-fill bursts. Interval-native insert_range makes each
// block O(log intervals), independent of the block length.
void BM_SeqSetInsertRangeBlocks(benchmark::State& state) {
  constexpr util::Seq kBlock = 1024;
  const auto blocks = static_cast<util::Seq>(state.range(0));
  for (auto _ : state) {
    util::SeqSet s;
    // Even blocks first, then the odd blocks that bridge them.
    for (util::Seq b = 0; b < blocks; b += 2) {
      s.insert_range(b * kBlock + 1, (b + 1) * kBlock);
    }
    for (util::Seq b = 1; b < blocks; b += 2) {
      s.insert_range(b * kBlock + 1, (b + 1) * kBlock);
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(kBlock));
}
BENCHMARK(BM_SeqSetInsertRangeBlocks)->Arg(64)->Arg(1024);

// --- SeqSet: merge (the per-INFO-exchange cost) --------------------------

// Dense-large: both sides hold millions of elements in a handful of
// intervals — the caught-up steady state at production stream lengths.
// Cost must scale with the interval count, not the element count.
void BM_SeqSetMergeDenseLarge(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet a = util::SeqSet::contiguous(n);
  a.insert_range(n + 100, 2 * n);  // one gap near the top
  util::SeqSet b = util::SeqSet::contiguous(2 * n);
  for (auto _ : state) {
    util::SeqSet target = a;
    target.merge(b);
    benchmark::DoNotOptimize(target);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_SeqSetMergeDenseLarge)->Arg(1 << 20);

// Sparse: many disjoint runs on both sides (lossy-link fragmentation).
void BM_SeqSetMergeSparse(benchmark::State& state) {
  const auto runs = static_cast<util::Seq>(state.range(0));
  util::SeqSet a;
  util::SeqSet b;
  for (util::Seq r = 0; r < runs; ++r) {
    // Disjoint 4-element runs, interleaved between the two sets.
    a.insert_range(r * 16 + 1, r * 16 + 4);
    b.insert_range(r * 16 + 8, r * 16 + 11);
  }
  for (auto _ : state) {
    util::SeqSet target = a;
    target.merge(b);
    benchmark::DoNotOptimize(target);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_SeqSetMergeSparse)->Arg(1024)->Arg(8192);

// Adversarial: odds merged with evens — every merged interval bridges, the
// worst case for coalescing logic.
void BM_SeqSetMergeAdversarial(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet odds;
  util::SeqSet evens;
  for (util::Seq q = 1; q <= n; q += 2) odds.insert(q);
  for (util::Seq q = 2; q <= n; q += 2) evens.insert(q);
  for (auto _ : state) {
    util::SeqSet target = odds;
    target.merge(evens);
    benchmark::DoNotOptimize(target);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqSetMergeAdversarial)->Arg(1 << 14);

// --- SeqSet: gap queries (the per-gap-fill-round cost) -------------------

void BM_SeqSetMissingFrom(benchmark::State& state) {
  util::SeqSet mine = util::SeqSet::contiguous(10000);
  util::SeqSet peer;
  for (util::Seq q = 1; q <= 10000; ++q) {
    if (q % 11 != 0) peer.insert(q);
  }
  for (auto _ : state) {
    auto missing = mine.missing_from(peer, 64);
    benchmark::DoNotOptimize(missing);
  }
}
BENCHMARK(BM_SeqSetMissingFrom);

// Dense-large: a caught-up filler planning for a peer whose few holes sit
// near the top of a multi-million-message stream. An element-wise scan
// probes every element below the holes; an interval walk skips straight to
// them.
void BM_SeqSetMissingFromDenseLarge(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet mine = util::SeqSet::contiguous(n);
  // 64 single-element holes in the peer's top 1% of the stream.
  std::vector<util::Seq> holes;
  for (util::Seq i = 0; i < 64; ++i) holes.push_back(n - 1 - i * (n / 6400));
  std::sort(holes.begin(), holes.end());
  util::SeqSet peer;
  util::Seq cursor = 1;
  for (util::Seq h : holes) {
    if (cursor <= h - 1) peer.insert_range(cursor, h - 1);
    cursor = h + 1;
  }
  if (cursor <= n) peer.insert_range(cursor, n);
  for (auto _ : state) {
    auto missing = mine.missing_from(peer);
    benchmark::DoNotOptimize(missing);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeqSetMissingFromDenseLarge)->Arg(1 << 20);

// Adversarial: maximally fragmented peer (every other element missing)
// under a small burst limit — the early-exit path must stay O(output).
void BM_SeqSetMissingFromAdversarial(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet mine = util::SeqSet::contiguous(n);
  util::SeqSet peer;
  for (util::Seq q = 2; q <= n; q += 2) peer.insert(q);
  for (auto _ : state) {
    auto missing = mine.missing_from(peer, 64);
    benchmark::DoNotOptimize(missing);
  }
}
BENCHMARK(BM_SeqSetMissingFromAdversarial)->Arg(1 << 16);

void BM_SeqSetGapsFragmented(benchmark::State& state) {
  const auto n = static_cast<util::Seq>(state.range(0));
  util::SeqSet s;
  for (util::Seq q = 1; q <= n; ++q) {
    if (q % 5 != 0) s.insert(q);
  }
  for (auto _ : state) {
    auto g = s.gaps(64);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_SeqSetGapsFragmented)->Arg(1 << 16);

void BM_SeqSetContains(benchmark::State& state) {
  util::SeqSet s;
  for (util::Seq q = 1; q <= 100000; ++q) {
    if (q % 3 != 0) s.insert(q);
  }
  util::Seq probe = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.contains(probe));
    probe = probe % 100000 + 1;
  }
}
BENCHMARK(BM_SeqSetContains);

// --- event queue ---------------------------------------------------------

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < state.range(0); ++i) {
      q.schedule((i * 7919) % 100000, [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

// Timer churn: the protocol's dominant queue workload is arm/disarm of
// liveness and attach timers that almost never fire. The benchmark holds a
// small live set of far-future timers while cancelling and re-arming them
// many times; a cancel unlinks its entry, so nothing accumulates.
void BM_EventQueueChurn(benchmark::State& state) {
  const int rearms = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    constexpr int kTimers = 64;  // live timers per host-like entity
    std::vector<sim::EventId> ids(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      ids[static_cast<std::size_t>(i)] =
          q.schedule(1000000 + i, [] {});  // far future
    }
    for (int r = 0; r < rearms; ++r) {
      const std::size_t slot = static_cast<std::size_t>(r % kTimers);
      q.cancel(ids[slot]);
      ids[slot] = q.schedule(1000000 + r, [] {});
    }
    while (!q.empty()) q.pop();
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueChurn)->Arg(10000)->Arg(100000);

// Interleaved schedule/cancel/pop with time progress — the simulator's
// actual access pattern, including next_time() probes.
void BM_EventQueueMixed(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> pending;
    std::uint64_t x = 88172645463325252ULL;  // xorshift, deterministic
    for (int i = 0; i < ops; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto r = x % 100;
      if (r < 50 || pending.empty()) {
        pending.push_back(q.schedule(static_cast<sim::TimePoint>(i + x % 64),
                                     [] {}));
      } else if (r < 80) {
        q.cancel(pending[x % pending.size()]);
      } else if (!q.empty()) {
        q.pop();
      }
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueMixed)->Arg(10000);

// --- transport coalescer and body store ------------------------------------

// stream16's coalescer pattern: batching is on but almost every frame goes
// out alone. Each iteration queues one frame for each of 16 destinations
// and lets every deadline fire, so it measures enqueue plus a singleton
// deadline flush, which recycles the queue's batch buffers.
void BM_CoalescerSingletonFlush(benchmark::State& state) {
  constexpr int kDestinations = 16;
  sim::Simulator simulator;
  std::size_t flushed = 0;
  transport::Coalescer coalescer(
      simulator, transport::CoalescerConfig{sim::milliseconds(5), 1200},
      [&flushed](HostId, std::span<transport::Coalescer::Item> items) {
        flushed += items.size();
      });
  for (auto _ : state) {
    for (int to = 0; to < kDestinations; ++to) {
      transport::Coalescer::Item item;
      item.payload = to;
      item.bytes = 64;
      item.kind = "data";
      coalescer.enqueue(HostId{to}, std::move(item));
    }
    simulator.run_for(sim::milliseconds(5));
  }
  benchmark::DoNotOptimize(flushed);
  state.SetItemsProcessed(state.iterations() * kDestinations);
}
BENCHMARK(BM_CoalescerSingletonFlush);

// The body store's life cycle: 64 messages recorded (every eighth one late,
// as a gap fill below the maximum), each read back once, then pruned.
void BM_HostStateRecordPrune(benchmark::State& state) {
  constexpr util::Seq kWindow = 64;
  std::vector<HostId> hosts;
  for (int i = 0; i < 16; ++i) hosts.push_back(HostId{i});
  core::HostState host_state(HostId{3}, hosts, HostId{0});
  const core::Payload body(std::string(256, 'b'));
  util::Seq next = 1;
  for (auto _ : state) {
    const util::Seq base = next;
    for (util::Seq q = base; q < base + kWindow; ++q) {
      if (q % 8 != 0) host_state.record_message(q, body);
    }
    for (util::Seq q = base; q < base + kWindow; ++q) {
      if (q % 8 == 0) host_state.record_message(q, body);
    }
    for (util::Seq q = base; q < base + kWindow; ++q) {
      benchmark::DoNotOptimize(host_state.body_of(q));
    }
    next = base + kWindow;
    host_state.prune(next - 1);
  }
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_HostStateRecordPrune);

// --- telemetry plane ------------------------------------------------------

// The per-event cost observability adds to the data plane: one owned
// counter increment. This must stay within noise of a bare uint64_t add —
// the registry hands out a reference, so there is no lookup on the hot
// path (DESIGN.md §14).
void BM_RegistryCounterInc(benchmark::State& state) {
  util::MetricsRegistry registry;
  util::MetricsRegistry::Counter& counter =
      registry.counter("bench.hot_path");
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryCounterInc);

// One delivery-latency observation on the shared sampler bounds: a bucket
// scan over ten bounds plus sum/count — what rbcast_node pays per
// first-delivery.
void BM_RegistryHistogramRecord(benchmark::State& state) {
  util::MetricsRegistry registry;
  util::Histogram& histogram = registry.histogram(
      "bench.latency_seconds", trace::MetricSampler::latency_bounds());
  double v = 0.0004;
  for (auto _ : state) {
    histogram.add(v);
    v = v < 50.0 ? v * 1.7 : 0.0004;  // sweeps every bucket incl. +inf
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryHistogramRecord);

// Scrape-side cost: evaluating a fleet-sized registry (32 hosts x 10
// callback series) into a snapshot, as every /metrics or /status hit does.
// Off the data plane, but it shares the node's event loop.
void BM_RegistrySnapshot(benchmark::State& state) {
  util::MetricsRegistry registry;
  std::uint64_t backing = 0;
  for (int h = 0; h < 32; ++h) {
    const std::string labels = "host=\"" + std::to_string(h) + "\"";
    for (int s = 0; s < 10; ++s) {
      registry.register_counter_fn("bench.series" + std::to_string(s),
                                   labels, "",
                                   [&backing] { return ++backing; });
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(registry.size()));
}
BENCHMARK(BM_RegistrySnapshot);

// --- routing & full scenario --------------------------------------------

void BM_RoutingRecompute(benchmark::State& state) {
  topo::ClusteredWanOptions options;
  options.clusters = static_cast<int>(state.range(0));
  options.hosts_per_cluster = 4;
  options.shape = topo::TrunkShape::kRing;
  options.extra_trunk_fraction = 0.5;
  const auto wan = make_clustered_wan(options);
  sim::Simulator simulator;
  net::Routing routing(
      simulator, wan.topology, [](LinkId) { return true; }, 0);
  for (auto _ : state) {
    routing.recompute_now();
  }
  state.counters["servers"] =
      static_cast<double>(wan.topology.server_count());
}
BENCHMARK(BM_RoutingRecompute)->Arg(5)->Arg(15)->Arg(30);

void BM_FullScenarioThroughput(benchmark::State& state) {
  // Events per second of a complete 3x3 WAN scenario with a live stream.
  for (auto _ : state) {
    topo::ClusteredWanOptions wan;
    wan.clusters = 3;
    wan.hosts_per_cluster = 3;
    harness::ScenarioOptions options;
    options.seed = 12;
    harness::Experiment e(make_clustered_wan(wan).topology, options);
    e.start();
    e.broadcast_stream(20, sim::milliseconds(500), sim::seconds(1));
    e.run_for(sim::seconds(60));
    benchmark::DoNotOptimize(e.metrics().host_sends());
  }
}
BENCHMARK(BM_FullScenarioThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
