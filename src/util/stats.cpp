#include "util/stats.h"

#include <algorithm>

#include "util/assert.h"

namespace rbcast::util {

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Samples::quantile(double q) const {
  RBCAST_ASSERT(q >= 0.0 && q <= 1.0);
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(xs_.size() - 1) + 0.5);
  return xs_[std::min(idx, xs_.size() - 1)];
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  RBCAST_CHECK_ARG(!bounds_.empty(), "histogram needs at least one bucket");
  RBCAST_CHECK_ARG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                       std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                           bounds_.end(),
                   "histogram bounds must be strictly increasing");
}

void Histogram::add(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
}

std::vector<std::uint64_t> Histogram::cumulative_counts() const {
  std::vector<std::uint64_t> out(bounds_.size(), 0);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    running += counts_[i];
    out[i] = running;
  }
  return out;
}

double Histogram::quantile(double q) const {
  RBCAST_ASSERT(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    running += counts_[i];
    if (static_cast<double>(running) >= target && running > 0) {
      return bounds_[i];
    }
  }
  return bounds_.back();
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

std::uint64_t CounterMap::get(const std::string& name) const {
  auto it = m_.find(name);
  return it != m_.end() ? it->second : 0;
}

}  // namespace rbcast::util
