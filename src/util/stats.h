// Lightweight statistics collection used by the metrics layer and benches.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace rbcast::util {

// Streaming mean/variance/min/max (Welford's algorithm); O(1) memory.
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void merge(const Accumulator& other);

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

// Keeps all samples; supports exact quantiles. Use for delivery-latency
// distributions where p95/p99 matter and sample counts are modest.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const { return xs_.size(); }
  [[nodiscard]] double mean() const;
  // Exact empirical quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

  [[nodiscard]] const std::vector<double>& values() const { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_{false};
  void ensure_sorted() const;
};

// Fixed-bucket histogram with cumulative ("less-or-equal") bucket counts,
// Prometheus-style. The metric sampler uses it to export delivery-latency
// distributions as a compact time series; exact quantiles stay with
// Samples. Bucket upper bounds must be strictly increasing; an implicit
// +inf bucket catches everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  // Cumulative count of samples <= upper_bounds()[i]. Size equals
  // upper_bounds().size(); samples above the last bound only show in
  // count().
  [[nodiscard]] std::vector<std::uint64_t> cumulative_counts() const;

  // Quantile estimate from the bucket counts, q in [0, 1]: the smallest
  // bucket bound whose cumulative count covers q of all samples, or the
  // last bound when the target falls in the +inf bucket. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  void clear();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // per-bucket, bounds_ size + 1 (+inf)
  std::uint64_t count_{0};
  double sum_{0.0};
};

// Named monotonically increasing counters (message counts, byte counts...).
class CounterMap {
 public:
  void inc(const std::string& name, std::uint64_t by = 1) { m_[name] += by; }
  // The counter `name` itself, created at 0 if absent. The reference stays
  // valid until clear(), so a hot path can resolve a name once and then
  // increment through it without building the string again.
  [[nodiscard]] std::uint64_t& slot(const std::string& name) { return m_[name]; }
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& all() const {
    return m_;
  }
  void clear() { m_.clear(); }

 private:
  std::map<std::string, std::uint64_t> m_;
};

}  // namespace rbcast::util
