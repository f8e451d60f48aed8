#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace innet::obs {

TimeSeriesCollector::TimeSeriesCollector(MetricsRegistry& registry)
    : registry_(registry), start_(std::chrono::steady_clock::now()) {}

TimeSeriesCollector::~TimeSeriesCollector() { Stop(); }

void TimeSeriesCollector::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { RunLoop(); });
}

void TimeSeriesCollector::Stop() {
  running_.store(false, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void TimeSeriesCollector::RunLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    SampleNow();
    // Sleep in small slices so Stop() returns promptly.
    uint64_t remaining = kPeriodMillis;
    while (remaining > 0 && running_.load(std::memory_order_relaxed)) {
      uint64_t slice = std::min<uint64_t>(remaining, 20);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      remaining -= slice;
    }
  }
}

double TimeSeriesCollector::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void TimeSeriesCollector::SampleNow() { SampleAt(NowSeconds()); }

void TimeSeriesCollector::RetainWindow(double window_seconds) {
  INNET_CHECK(window_seconds >= 0.0 && window_seconds <= kMaxWindowSeconds);
  size_t samples = static_cast<size_t>(std::ceil(
                       window_seconds * 1000.0 / kPeriodMillis)) + 1;
  std::lock_guard<std::mutex> lock(mutex_);
  retained_ = std::max(retained_, samples);
}

void TimeSeriesCollector::Append(Ring& ring, TimeSeriesSample sample) {
  ring.slots.push_back(std::move(sample));
  while (ring.slots.size() > retained_) ring.slots.pop_front();
}

void TimeSeriesCollector::SampleAt(double now_seconds) {
  std::vector<std::function<void(double)>> listeners;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Derived gauges refresh first so this tick's sample sees them.
    for (auto& [gauge, fn] : derived_) gauge->Set(fn(now_seconds));

    for (const Counter* counter : registry_.Counters()) {
      Ring& ring = rings_[counter->name()];
      TimeSeriesSample sample;
      sample.at_seconds = now_seconds;
      sample.value = static_cast<double>(counter->Value());
      Append(ring, std::move(sample));
    }
    for (const Gauge* gauge : registry_.Gauges()) {
      // Label variants of one family share a base name; key the ring by
      // the full series identity so they do not clobber each other.
      std::string key = gauge->labels().empty()
                            ? gauge->name()
                            : gauge->name() + "{" + gauge->labels() + "}";
      Ring& ring = rings_[key];
      TimeSeriesSample sample;
      sample.at_seconds = now_seconds;
      sample.value = gauge->Value();
      Append(ring, std::move(sample));
    }
    for (const Histogram* histogram : registry_.Histograms()) {
      Ring& ring = rings_[histogram->name()];
      if (ring.bounds.empty()) ring.bounds = histogram->UpperBounds();
      TimeSeriesSample sample;
      sample.at_seconds = now_seconds;
      sample.bucket_counts = histogram->BucketCounts();
      sample.value = histogram->Sum();
      Append(ring, std::move(sample));
    }
    listeners = listeners_;
  }
  samples_taken_.fetch_add(1, std::memory_order_relaxed);
  // Listeners run unlocked: the SloEngine reads back through the public
  // accessors, which take the lock themselves.
  for (auto& listener : listeners) listener(now_seconds);
}

void TimeSeriesCollector::AddDerivedGauge(const std::string& name,
                                          const std::string& help,
                                          std::function<double(double)> fn) {
  Gauge& gauge = registry_.GetGauge(name, help);
  std::lock_guard<std::mutex> lock(mutex_);
  derived_.emplace_back(&gauge, std::move(fn));
}

void TimeSeriesCollector::AddSampleListener(
    std::function<void(double)> listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  listeners_.push_back(std::move(listener));
}

std::vector<TimeSeriesSample> TimeSeriesCollector::Series(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rings_.find(name);
  if (it == rings_.end()) return {};
  return {it->second.slots.begin(), it->second.slots.end()};
}

bool TimeSeriesCollector::WindowEdges(const Ring& ring,
                                      double window_seconds,
                                      const TimeSeriesSample** oldest,
                                      const TimeSeriesSample** newest) const {
  if (ring.slots.size() < 2) return false;
  *newest = &ring.slots.back();
  double cutoff = (*newest)->at_seconds - window_seconds;
  const TimeSeriesSample* edge = nullptr;
  for (const TimeSeriesSample& sample : ring.slots) {
    if (sample.at_seconds >= cutoff) {
      edge = &sample;
      break;
    }
  }
  if (edge == nullptr || edge == *newest) {
    // Window narrower than one sampling period: fall back to the previous
    // slot so short windows still see the latest delta.
    edge = &ring.slots[ring.slots.size() - 2];
  }
  *oldest = edge;
  return true;
}

double TimeSeriesCollector::CounterRate(const std::string& name,
                                        double window_seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rings_.find(name);
  if (it == rings_.end()) return 0.0;
  const TimeSeriesSample* oldest = nullptr;
  const TimeSeriesSample* newest = nullptr;
  if (!WindowEdges(it->second, window_seconds, &oldest, &newest)) return 0.0;
  double dt = newest->at_seconds - oldest->at_seconds;
  if (dt <= 0.0) return 0.0;
  return (newest->value - oldest->value) / dt;
}

double TimeSeriesCollector::WindowedMax(const std::string& name,
                                        double window_seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rings_.find(name);
  if (it == rings_.end() || it->second.slots.empty()) return 0.0;
  double cutoff = it->second.slots.back().at_seconds - window_seconds;
  double max_value = 0.0;
  bool any = false;
  for (const TimeSeriesSample& sample : it->second.slots) {
    if (sample.at_seconds < cutoff) continue;
    max_value = any ? std::max(max_value, sample.value) : sample.value;
    any = true;
  }
  return any ? max_value : 0.0;
}

double TimeSeriesCollector::WindowedQuantile(const std::string& name,
                                             double window_seconds,
                                             double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = rings_.find(name);
  if (it == rings_.end() || it->second.bounds.empty()) return 0.0;
  const Ring& ring = it->second;
  const TimeSeriesSample* oldest = nullptr;
  const TimeSeriesSample* newest = nullptr;
  if (!WindowEdges(ring, window_seconds, &oldest, &newest)) return 0.0;
  INNET_CHECK(newest->bucket_counts.size() == ring.bounds.size() + 1);
  INNET_CHECK(oldest->bucket_counts.size() == newest->bucket_counts.size());
  std::vector<uint64_t> deltas(newest->bucket_counts.size());
  for (size_t i = 0; i < deltas.size(); ++i) {
    deltas[i] = newest->bucket_counts[i] - oldest->bucket_counts[i];
  }
  return PercentileFromBucketCounts(ring.bounds, deltas, q);
}

std::vector<std::pair<std::string, double>>
TimeSeriesCollector::AllCounterRates(double window_seconds) const {
  std::vector<std::pair<std::string, double>> out;
  std::vector<std::string> names;
  for (const Counter* counter : registry_.Counters()) {
    names.push_back(counter->name());
  }
  for (const std::string& name : names) {
    out.emplace_back(name, CounterRate(name, window_seconds));
  }
  return out;
}

}  // namespace innet::obs
