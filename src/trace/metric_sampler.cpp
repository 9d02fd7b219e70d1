#include "trace/metric_sampler.h"

#include <sstream>

#include "trace/convergence.h"
#include "util/assert.h"

namespace rbcast::trace {

namespace {

// Stable field key for a bucket bound: "le_0.001" .. "le_60" (trailing
// zeros trimmed so keys read naturally).
std::string bucket_key(double bound) {
  std::ostringstream os;
  os << "le_" << bound;
  return os.str();
}

}  // namespace

std::vector<double> MetricSampler::latency_bounds() {
  return {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0};
}

MetricSampler::MetricSampler(util::Scheduler& scheduler, Metrics& metrics,
                             TraceSink& sink, util::Duration period,
                             TreeShapeFn tree_shape)
    : scheduler_(scheduler),
      metrics_(metrics),
      sink_(sink),
      period_(period),
      tree_shape_(std::move(tree_shape)),
      latency_histogram_(latency_bounds()) {
  RBCAST_CHECK_ARG(period > 0, "sample period must be positive");
  task_ = std::make_unique<util::PeriodicTask>(scheduler_, period_,
                                               [this] { sample_now(); });
}

MetricSampler::~MetricSampler() = default;

void MetricSampler::start() { task_->start(period_); }

void MetricSampler::stop() { task_->stop(); }

void MetricSampler::on_queue_backlog(ServerId server, LinkId /*link*/,
                                     sim::Duration backlog) {
  latest_backlog_[server] = backlog;
}

void MetricSampler::set_registry(const util::MetricsRegistry* registry) {
  registry_ = registry;
  last_registry_counters_.clear();
}

void MetricSampler::sample_now() {
  ++samples_;
  emit_counters();
  emit_backlog();
  emit_latency();
  emit_tree();
  emit_registry();
}

void MetricSampler::emit_counters() {
  TraceRecord r;
  r.at = scheduler_.now();
  r.category = "metric";
  r.name = "counters";
  for (const auto& [name, value] : metrics_.counters().all()) {
    const std::uint64_t before = last_counters_[name];
    if (value != before) r.field(name, value - before);
    last_counters_[name] = value;
  }
  // An all-quiet interval still emits a (fieldless) sample: gaps in the
  // series would otherwise be indistinguishable from sampling stopping.
  sink_.record(r);
}

void MetricSampler::emit_backlog() {
  if (latest_backlog_.empty()) return;
  TraceRecord r;
  r.at = scheduler_.now();
  r.category = "metric";
  r.name = "backlog";
  for (const auto& [server, backlog] : latest_backlog_) {
    r.field("s" + std::to_string(server.value), sim::to_seconds(backlog));
  }
  sink_.record(r);
}

void MetricSampler::emit_latency() {
  const util::Samples latencies = metrics_.all_latencies();
  if (latencies.count() == 0) return;
  // Rebuilt from scratch each sample: a gap fill can complete an *early*
  // sequence late in the run, so there is no stable "new samples" suffix
  // to fold in incrementally. Sample counts are modest (hosts x messages).
  latency_histogram_.clear();
  for (double v : latencies.values()) latency_histogram_.add(v);

  TraceRecord r;
  r.at = scheduler_.now();
  r.category = "metric";
  r.name = "latency";
  r.field("count", std::uint64_t{latencies.count()})
      .field("mean_s", latencies.mean())
      .field("p50_s", latencies.quantile(0.5))
      .field("p95_s", latencies.quantile(0.95))
      .field("p99_s", latencies.quantile(0.99))
      .field("max_s", latencies.max());
  const auto& bounds = latency_histogram_.upper_bounds();
  const auto cumulative = latency_histogram_.cumulative_counts();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    r.field(bucket_key(bounds[i]), cumulative[i]);
  }
  sink_.record(r);
}

void MetricSampler::emit_tree() {
  if (!tree_shape_) return;
  const ConvergenceReport shape = tree_shape_();
  TraceRecord r;
  r.at = scheduler_.now();
  r.category = "metric";
  r.name = "tree";
  r.field("depth", std::int64_t{shape.depth})
      .field("leaders", std::int64_t{shape.leader_count})
      .field("orphans", std::int64_t{shape.orphans});
  sink_.record(r);
}

void MetricSampler::emit_registry() {
  if (registry_ == nullptr) return;
  TraceRecord r;
  r.at = scheduler_.now();
  r.category = "metric";
  r.name = "registry";
  // Counters as per-interval deltas (same convention as "counters"),
  // summed across label sets; only counters that moved become fields.
  for (const auto& [name, value] : registry_->counter_totals()) {
    const std::uint64_t before = last_registry_counters_[name];
    if (value != before) r.field(name, value - before);
    last_registry_counters_[name] = value;
  }
  if (r.fields.empty()) return;  // "counters" already marks quiet intervals
  sink_.record(r);
}

}  // namespace rbcast::trace
