// MetricSampler — periodic metric time series for a running experiment.
//
// Experiments previously reported end-of-run totals only; the sampler
// turns the same sources into curves over virtual time, emitted as
// "metric" TraceRecords every `period`:
//
//  * "counters"  — per-counter deltas since the previous sample (only
//    counters that moved), so rates are directly visible;
//  * "backlog"   — the most recent serialization backlog observed per
//    server (seconds), via its own NetObserver hook (install through a
//    net::NetObserverFanout next to trace::Metrics);
//  * "latency"   — delivery-latency distribution so far: count, mean,
//    p50/p95/p99 (exact, from trace::Metrics samples) plus cumulative
//    util::Histogram bucket counts (le_<bound> fields);
//  * "tree"      — protocol tree shape (depth, cluster-leader count with
//    the source, orphan count) from the ConvergenceReport a TreeShapeFn
//    returns, when one is supplied (paper protocol only);
//  * "registry"  — counter deltas and gauge values from an attached
//    util::MetricsRegistry (set_registry), which is how transport-level
//    stats (coalescer flushes, decode errors...) reach the time series
//    without the sampler knowing any backend type.
//
// Deterministic by construction: the sampler runs on whatever
// util::Scheduler drives the system — the virtual clock in simulations
// (where samples read only simulation state and replay byte-identically)
// or util::RealTimeScheduler in a live node.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/message.h"
#include "trace/metrics.h"
#include "trace/trace_sink.h"
#include "util/metrics_registry.h"
#include "util/scheduler.h"
#include "util/stats.h"

namespace rbcast::trace {

struct ConvergenceReport;

class MetricSampler final : public net::NetObserver {
 public:
  // The "tree" record reads depth, leader_count and orphans from it.
  using TreeShapeFn = std::function<ConvergenceReport()>;

  // THE delivery-latency bucket bounds, in seconds — the schema shared by
  // the sampler's le_* fields, the registry histograms rbcast_node
  // exposes, and the Prometheus exposition (DESIGN.md §14). Spans
  // sub-millisecond localhost deliveries through partition-healing gap
  // fills; above 60s only the +inf bucket counts.
  [[nodiscard]] static std::vector<double> latency_bounds();

  // `metrics` and `sink` are borrowed and must outlive the sampler; any
  // util::Scheduler works (sim::Simulator or util::RealTimeScheduler).
  MetricSampler(util::Scheduler& scheduler, Metrics& metrics, TraceSink& sink,
                util::Duration period, TreeShapeFn tree_shape = {});
  ~MetricSampler();

  MetricSampler(const MetricSampler&) = delete;
  MetricSampler& operator=(const MetricSampler&) = delete;

  // Arms the periodic task; the first sample fires one period from now.
  void start();
  void stop();

  // Takes one sample immediately (the harness calls this at run end so
  // the series always covers the full run).
  void sample_now();

  // Attaches (or detaches, with nullptr) a registry whose counters and
  // gauges are folded into each sample as a "registry" record. Borrowed;
  // must outlive the sampler or be detached first.
  void set_registry(const util::MetricsRegistry* registry);

  [[nodiscard]] sim::Duration period() const { return period_; }
  [[nodiscard]] std::uint64_t samples_taken() const { return samples_; }

  // --- NetObserver (latest-backlog tracking) -----------------------------
  void on_queue_backlog(ServerId server, LinkId link,
                        sim::Duration backlog) override;

 private:
  void emit_counters();
  void emit_backlog();
  void emit_latency();
  void emit_tree();
  void emit_registry();

  util::Scheduler& scheduler_;
  Metrics& metrics_;
  TraceSink& sink_;
  sim::Duration period_;
  TreeShapeFn tree_shape_;
  const util::MetricsRegistry* registry_{nullptr};

  // Ordered: sample emission iterates these and field order must be
  // stable across runs (byte-identical trace replay).
  std::map<std::string, std::uint64_t> last_counters_;
  std::map<std::string, std::uint64_t> last_registry_counters_;
  std::map<ServerId, sim::Duration> latest_backlog_;
  util::Histogram latency_histogram_;
  std::uint64_t samples_{0};

  std::unique_ptr<util::PeriodicTask> task_;
};

}  // namespace rbcast::trace
