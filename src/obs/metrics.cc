#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace innet::obs {

namespace internal {

size_t ThreadCellIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace internal

Counter::Counter(std::string name, std::string help)
    : name_(std::move(name)), help_(std::move(help)) {}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const internal::CounterCell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (internal::CounterCell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

Gauge::Gauge(std::string name, std::string help, std::string labels)
    : name_(std::move(name)), help_(std::move(help)),
      labels_(std::move(labels)) {}

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::string name, std::vector<double> bounds,
                     std::string help)
    : name_(std::move(name)), help_(std::move(help)),
      bounds_(std::move(bounds)) {
  INNET_CHECK(!bounds_.empty());
  INNET_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  cells_.reserve(internal::kMetricCells);
  for (size_t i = 0; i < internal::kMetricCells; ++i) {
    cells_.push_back(std::make_unique<Cell>(bounds_.size() + 1));
  }
}

void Histogram::Observe(double value) {
  // Prometheus `le`: the first bound >= value; a NaN goes to +Inf.
  size_t bucket =
      std::isnan(value)
          ? bounds_.size()
          : std::lower_bound(bounds_.begin(), bounds_.end(), value) -
                bounds_.begin();
  Cell& cell =
      *cells_[internal::ThreadCellIndex() & (internal::kMetricCells - 1)];
  cell.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  double sum = cell.sum.load(std::memory_order_relaxed);
  while (!cell.sum.compare_exchange_weak(sum, sum + value,
                                         std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Cell>& cell : cells_) {
    for (const std::atomic<uint64_t>& c : cell->counts) {
      total += c.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const std::unique_ptr<Cell>& cell : cells_) {
    total += cell->sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1, 0);
  for (const std::unique_ptr<Cell>& cell : cells_) {
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += cell->counts[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

double Histogram::Percentile(double q) const {
  INNET_CHECK(q >= 0.0 && q <= 1.0);
  return PercentileFromBucketCounts(bounds_, BucketCounts(), q);
}

double PercentileFromBucketCounts(const std::vector<double>& bounds,
                                  const std::vector<uint64_t>& counts,
                                  double q) {
  INNET_CHECK(q >= 0.0 && q <= 1.0);
  INNET_CHECK(counts.size() == bounds.size() + 1);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cumulative + counts[i]) >= rank) {
      // The +inf overflow bucket has no finite width: any quantile landing
      // in it is only known to be >= the last finite bound. Report +inf
      // instead of inventing a value inside the final finite bucket.
      if (i == bounds.size()) {
        return std::numeric_limits<double>::infinity();
      }
      double upper = bounds[i];
      double lower = i == 0 ? std::min(0.0, upper) : bounds[i - 1];
      double frac = (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(counts[i]);
      frac = std::clamp(frac, 0.0, 1.0);
      return lower + frac * (upper - lower);
    }
    cumulative += counts[i];
  }
  return std::numeric_limits<double>::infinity();
}

void Histogram::Reset() {
  for (std::unique_ptr<Cell>& cell : cells_) {
    for (std::atomic<uint64_t>& c : cell->counts) {
      c.store(0, std::memory_order_relaxed);
    }
    cell->sum.store(0.0, std::memory_order_relaxed);
  }
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t count) {
  INNET_CHECK(start > 0.0 && factor > 1.0 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

void MetricsRegistry::WarnOnHelpConflict(const std::string& name,
                                         const std::string& existing_help,
                                         const std::string& new_help) {
  if (new_help.empty() || new_help == existing_help) return;
  if (!help_conflicts_warned_.insert(name).second) return;
  INNET_LOG(WARN) << "metric \"" << name
                  << "\" re-registered with different help text; keeping "
                     "the first. first=\""
                  << existing_help << "\" ignored=\"" << new_help << "\"";
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  INNET_CHECK(gauges_.find(name) == gauges_.end());
  INNET_CHECK(histograms_.find(name) == histograms_.end());
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>(name, help)).first;
  } else {
    WarnOnHelpConflict(name, it->second->help(), help);
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  INNET_CHECK(counters_.find(name) == counters_.end());
  INNET_CHECK(histograms_.find(name) == histograms_.end());
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>(name, help)).first;
  } else {
    WarnOnHelpConflict(name, it->second->help(), help);
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGaugeWithLabels(const std::string& name,
                                           const std::string& labels,
                                           const std::string& help) {
  if (labels.empty()) return GetGauge(name, help);
  std::string key = name + "{" + labels + "}";
  std::lock_guard<std::mutex> lock(mutex_);
  INNET_CHECK(counters_.find(key) == counters_.end());
  INNET_CHECK(histograms_.find(key) == histograms_.end());
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(key, std::make_unique<Gauge>(name, help, labels))
             .first;
  } else {
    WarnOnHelpConflict(key, it->second->help(), help);
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  INNET_CHECK(counters_.find(name) == counters_.end());
  INNET_CHECK(gauges_.find(name) == gauges_.end());
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(name,
                                                        std::move(bounds),
                                                        help))
             .first;
  } else {
    WarnOnHelpConflict(name, it->second->help(), help);
  }
  return *it->second;
}

std::vector<const Counter*> MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Counter*> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) out.push_back(counter.get());
  return out;
}

std::vector<const Gauge*> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Gauge*> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) out.push_back(gauge.get());
  return out;
}

std::vector<const Histogram*> MetricsRegistry::Histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Histogram*> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.push_back(histogram.get());
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace innet::obs
