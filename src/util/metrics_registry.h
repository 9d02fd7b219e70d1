// MetricsRegistry — the one naming authority for runtime telemetry.
//
// Every subsystem that keeps ad-hoc stat structs (BroadcastHost::Counters,
// UdpTransport::Stats, Coalescer::Stats...) registers them here under a
// stable dotted name plus an optional pre-rendered label set, and every
// consumer — the Prometheus text exposition served by the node admin
// endpoint, the /status JSON snapshot, and trace::MetricSampler's per-run
// time series — reads the same snapshot. One name, three views; the
// naming contract is documented in DESIGN.md §14.
//
// Two registration styles:
//
//  * owned instruments (counter()/histogram()) hand back a reference the
//    caller increments on its hot path — a single add on a std::uint64_t
//    or one util::Histogram::add, benchmarked in bench_micro so
//    observability never silently taxes the data plane;
//  * callback instruments (register_*_fn) adapt the pre-existing stat
//    structs without touching their layout: the callable is invoked only
//    at snapshot time, so registration costs the running system nothing.
//
// Determinism: instruments live in a std::map ordered by (name, labels),
// so snapshot() iteration — and therefore every exposition format and the
// sampler's field order — is stable across runs, as rbcast_analyze's
// determinism rules require.
// Registration is single-threaded like everything else in the repo; the
// "lock-free-ish" property is simply that reads never take a lock because
// there is none to take.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace rbcast::util {

// One metric's value at snapshot time. For histograms `cumulative` holds
// the less-or-equal count per bound (the le_* schema MetricSampler and the
// Prometheus exposition share); samples above the last bound show only in
// `count`.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;    // dotted ("transport.datagrams_sent")
  std::string labels;  // pre-rendered Prometheus label body ("host=\"3\"")
  std::string help;    // one-line description (# HELP)
  Kind kind{Kind::kCounter};

  std::uint64_t counter{0};
  double gauge{0};
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;
  std::uint64_t count{0};
  double sum{0};
};

class MetricsRegistry {
 public:
  // Owned monotonic counter; inc() is the whole hot-path API.
  class Counter {
   public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    [[nodiscard]] std::uint64_t value() const { return value_; }

   private:
    std::uint64_t value_{0};
  };

  using CounterFn = std::function<std::uint64_t()>;
  using GaugeFn = std::function<double()>;
  // Borrowed pointer, read at snapshot time; may return nullptr while the
  // source is gone (the metric then reads as empty).
  using HistogramFn = std::function<const Histogram*()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- owned instruments --------------------------------------------------
  // References stay valid for the registry's lifetime. Registering the
  // same (name, labels) twice throws std::invalid_argument.

  Counter& counter(const std::string& name, const std::string& labels = {},
                   const std::string& help = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& labels = {},
                       const std::string& help = {});

  // --- callback instruments ----------------------------------------------

  void register_counter_fn(const std::string& name, const std::string& labels,
                           const std::string& help, CounterFn fn);
  void register_gauge_fn(const std::string& name, const std::string& labels,
                         const std::string& help, GaugeFn fn);
  void register_histogram_fn(const std::string& name,
                             const std::string& labels,
                             const std::string& help, HistogramFn fn);

  // Removes every instrument whose (name, labels) key matches; callback
  // sources use this before their backing struct dies.
  void unregister(const std::string& name, const std::string& labels = {});

  // --- reading ------------------------------------------------------------

  [[nodiscard]] std::size_t size() const { return instruments_.size(); }

  // Evaluates every instrument, ordered by (name, labels).
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  // Counters only, summed across label sets per name and ordered by name —
  // the flat delta source trace::MetricSampler folds into its time series.
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_totals() const;

 private:
  struct Instrument {
    MetricSnapshot::Kind kind{MetricSnapshot::Kind::kCounter};
    std::string help;
    // Exactly one of these is set, matching `kind`.
    std::unique_ptr<Counter> owned_counter;
    std::unique_ptr<Histogram> owned_histogram;
    CounterFn counter_fn;
    GaugeFn gauge_fn;
    HistogramFn histogram_fn;
  };

  using Key = std::pair<std::string, std::string>;  // (name, labels)

  Instrument& emplace(const std::string& name, const std::string& labels,
                      const std::string& help, MetricSnapshot::Kind kind);

  // Ordered: snapshot() iteration order is the exposition order.
  std::map<Key, Instrument> instruments_;
};

}  // namespace rbcast::util
