// Declarative SLOs with multi-window burn-rate evaluation
// (docs/OBSERVABILITY.md §Live telemetry & SLOs).
//
// An objective names a metric, a signal derived from its rolling ring
// (windowed quantile, gauge level, or counter rate), a threshold, and two
// windows. Following the standard multi-window burn-rate recipe, an SLO is
// BURNING only when the signal breaches the threshold over BOTH the short
// window (the problem is happening now) and the long window (it is not a
// one-sample blip); it clears when both windows are back under. Each
// transition emits an INNET_LOG(WARN), and the current state latches into
// an `innet_slo_burning{slo="<name>"}` gauge so scrapes and file exports
// carry alert state without a separate alerting stack.
//
// Config format (one objective per line, '#' comments):
//   slo name=query_p95 metric=innet_query_latency_micros signal=p95
//       threshold=5000 short=5 long=30   (single line in the file)
// `short`/`long` are seconds, 0 < short <= long <= 3600. Signals: p50 |
// p95 | p99 | gauge | rate.
#ifndef INNET_OBS_SLO_H_
#define INNET_OBS_SLO_H_

#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace innet::obs {

enum class SloSignal { kP50, kP95, kP99, kGauge, kRate };

/// One declarative objective.
struct SloObjective {
  std::string name;    // label value in innet_slo_burning{slo="..."}
  std::string metric;  // registry metric the signal derives from
  SloSignal signal = SloSignal::kP95;
  /// Breach is `signal > threshold` (set `below=true` to invert).
  double threshold = 0.0;
  bool below = false;
  double short_window_seconds = 5.0;
  double long_window_seconds = 30.0;
};

/// Parses the config text above. Returns false (and logs ERROR with the
/// offending line) on malformed input; `out` then holds the objectives
/// parsed before the error.
bool ParseSloConfig(const std::string& text,
                    std::vector<SloObjective>* out);

/// Reads and parses `path`. Returns false on unreadable file or parse
/// error.
bool LoadSloConfigFile(const std::string& path,
                       std::vector<SloObjective>* out);

/// Evaluates objectives against a TimeSeriesCollector's rings.
class SloEngine {
 public:
  /// Registers one latched `innet_slo_burning{slo=...}` gauge per
  /// objective in the collector's registry (via `registry`); the
  /// collector retains each objective's long window.
  SloEngine(MetricsRegistry& registry, TimeSeriesCollector& collector,
            std::vector<SloObjective> objectives);

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Evaluates every objective once. Call from a collector sample
  /// listener (`collector.AddSampleListener([&](double){ engine.Evaluate(); })`)
  /// or manually in tests after SampleNow().
  void Evaluate();

  /// True when the named objective is currently burning.
  bool IsBurning(const std::string& name) const;

  /// Burning objectives, name order; feeds /varz and /healthz detail.
  std::vector<std::string> Burning() const;

  size_t objective_count() const { return states_.size(); }

 private:
  struct State {
    SloObjective objective;
    Gauge* gauge = nullptr;  // latched innet_slo_burning series
    bool burning = false;
  };

  double Signal(const SloObjective& objective, double window_seconds) const;

  TimeSeriesCollector& collector_;
  mutable std::mutex mutex_;
  std::vector<State> states_;
};

}  // namespace innet::obs

#endif  // INNET_OBS_SLO_H_
