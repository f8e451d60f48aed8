// Rolling short-history sampling of the MetricsRegistry
// (docs/OBSERVABILITY.md §Live telemetry & SLOs).
//
// Lifetime totals answer "how much, ever"; a live operator needs "how fast,
// lately". The TimeSeriesCollector samples every registered metric every
// kPeriodMillis into per-metric rings holding the longest window any
// reader asked for (RetainWindow): counters keep cumulative values (rates
// derive from deltas), gauges keep instantaneous values, histograms keep
// cumulative bucket counts + sum so WINDOWED quantiles derive from bucket
// deltas between ring slots — the same interpolation as
// Histogram::Percentile, restricted to recent observations.
//
// Sampling runs either on a background thread (Start/Stop) or manually via
// SampleNow(), which tests and single-threaded tools use for determinism.
// All reads lock the same mutex as sampling; the collector is not on any
// query hot path.
#ifndef INNET_OBS_TIMESERIES_H_
#define INNET_OBS_TIMESERIES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace innet::obs {

/// One ring slot of one metric's history.
struct TimeSeriesSample {
  /// Collector-relative steady seconds when the sample was taken.
  double at_seconds = 0.0;
  /// Counter value, gauge value, or histogram sum.
  double value = 0.0;
  /// Histogram only: cumulative per-bucket counts (bounds + overflow).
  std::vector<uint64_t> bucket_counts;
};

/// Samples a MetricsRegistry into rolling rings sized by their readers.
class TimeSeriesCollector {
 public:
  static constexpr uint64_t kPeriodMillis = 250;
  /// Longest window a ring holds: 14401 samples per metric.
  static constexpr double kMaxWindowSeconds = 3600.0;

  explicit TimeSeriesCollector(MetricsRegistry& registry);
  ~TimeSeriesCollector();

  TimeSeriesCollector(const TimeSeriesCollector&) = delete;
  TimeSeriesCollector& operator=(const TimeSeriesCollector&) = delete;

  /// Starts the background sampling thread. Idempotent.
  void Start();
  /// Stops and joins the background thread. Idempotent; also run by the
  /// destructor.
  void Stop();

  /// Takes one sample of every registered metric right now (also refreshes
  /// derived gauges), stamped with NowSeconds(). The background thread
  /// calls this every kPeriodMillis; tests and single-threaded tools call
  /// it directly.
  void SampleNow();

  /// Grows every ring to ceil(window / period) + 1 samples; rings start
  /// at 2 (one delta) and never shrink. Each reader calls it for the
  /// longest window it reads: TelemetryServer::AttachCollector for /varz,
  /// SloEngine per objective. `window_seconds` is in [0, kMaxWindowSeconds].
  void RetainWindow(double window_seconds);

  /// Registers a gauge whose value is recomputed from `fn(now_seconds)` at
  /// the START of every sample tick, before metrics are read — e.g.
  /// innet_uptime_seconds or refreeze staleness. The gauge lives in the
  /// underlying registry, so it exports everywhere gauges do.
  void AddDerivedGauge(const std::string& name, const std::string& help,
                       std::function<double(double)> fn);

  /// Runs after every completed sample tick with the tick's timestamp.
  /// The SloEngine hooks evaluation here so objectives are checked exactly
  /// once per sample. Listeners run without the ring lock held.
  void AddSampleListener(std::function<void(double)> listener);

  /// Ring of `name` (a counter/gauge name or a histogram base name),
  /// oldest first. Empty when the metric has never been sampled.
  std::vector<TimeSeriesSample> Series(const std::string& name) const;

  /// Per-second rate of counter `name` over the last `window_seconds`
  /// (delta between the newest sample and the oldest sample inside the
  /// window). 0 with fewer than two samples.
  double CounterRate(const std::string& name, double window_seconds) const;

  /// Maximum sampled value of `name` inside the window.
  double WindowedMax(const std::string& name, double window_seconds) const;

  /// Quantile of histogram `name` over only the observations inside the
  /// last `window_seconds` (bucket-count deltas between the window's edge
  /// samples). Returns 0 on an empty window, +inf when the quantile lands
  /// in the overflow bucket — same contract as Histogram::Percentile.
  double WindowedQuantile(const std::string& name, double window_seconds,
                          double q) const;

  /// Newest-sample rates of every sampled counter over `window_seconds`,
  /// name-ordered; feeds /varz.
  std::vector<std::pair<std::string, double>> AllCounterRates(
      double window_seconds) const;

  /// Seconds since the collector was constructed (the sampling clock).
  double NowSeconds() const;

  uint64_t SamplesTaken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    std::deque<TimeSeriesSample> slots;  // oldest first
    std::vector<double> bounds;          // histograms only
  };

  void SampleAt(double now_seconds);
  /// Appends `sample` to `ring`, dropping the oldest beyond retained_.
  void Append(Ring& ring, TimeSeriesSample sample);
  /// Edge samples of the window: newest, and oldest still inside it.
  /// Returns false with fewer than two samples.
  bool WindowEdges(const Ring& ring, double window_seconds,
                   const TimeSeriesSample** oldest,
                   const TimeSeriesSample** newest) const;
  void RunLoop();

  MetricsRegistry& registry_;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;
  size_t retained_ = 2;
  std::map<std::string, Ring> rings_;
  std::vector<std::pair<Gauge*, std::function<double(double)>>> derived_;
  std::vector<std::function<void(double)>> listeners_;

  std::atomic<uint64_t> samples_taken_{0};
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace innet::obs

#endif  // INNET_OBS_TIMESERIES_H_
