#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/export.h"
#include "util/logging.h"

namespace innet::obs {

namespace {

bool ParseSignal(const std::string& text, SloSignal* signal) {
  if (text == "p50") return *signal = SloSignal::kP50, true;
  if (text == "p95") return *signal = SloSignal::kP95, true;
  if (text == "p99") return *signal = SloSignal::kP99, true;
  if (text == "gauge") return *signal = SloSignal::kGauge, true;
  if (text == "rate") return *signal = SloSignal::kRate, true;
  return false;
}

bool ParseDouble(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty();
}

}  // namespace

bool ParseSloConfig(const std::string& text,
                    std::vector<SloObjective>* out) {
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string token;
    if (!(tokens >> token)) continue;  // blank or comment-only line
    if (token != "slo") {
      INNET_LOG(ERROR) << "slo config line " << line_number
                       << ": expected \"slo\", got \"" << token << "\"";
      return false;
    }
    SloObjective objective;
    bool ok = true;
    while (tokens >> token) {
      size_t eq = token.find('=');
      if (eq == std::string::npos) {
        ok = false;
        break;
      }
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      if (key == "name") {
        objective.name = value;
      } else if (key == "metric") {
        objective.metric = value;
      } else if (key == "signal") {
        ok = ParseSignal(value, &objective.signal);
      } else if (key == "threshold") {
        ok = ParseDouble(value, &objective.threshold);
      } else if (key == "short") {
        ok = ParseDouble(value, &objective.short_window_seconds);
      } else if (key == "long") {
        ok = ParseDouble(value, &objective.long_window_seconds);
      } else if (key == "below") {
        objective.below = value == "1" || value == "true";
      } else {
        ok = false;
      }
      if (!ok) break;
    }
    ok = ok && !objective.name.empty() && !objective.metric.empty() &&
         objective.short_window_seconds > 0.0 &&
         objective.long_window_seconds >= objective.short_window_seconds &&
         objective.long_window_seconds <=
             TimeSeriesCollector::kMaxWindowSeconds;
    if (!ok) {
      INNET_LOG(ERROR) << "slo config line " << line_number
                       << ": malformed objective: " << line;
      return false;
    }
    out->push_back(std::move(objective));
  }
  return true;
}

bool LoadSloConfigFile(const std::string& path,
                       std::vector<SloObjective>* out) {
  std::ifstream in(path);
  if (!in) {
    INNET_LOG(ERROR) << "cannot read slo config " << path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseSloConfig(text.str(), out);
}

SloEngine::SloEngine(MetricsRegistry& registry,
                     TimeSeriesCollector& collector,
                     std::vector<SloObjective> objectives)
    : collector_(collector) {
  states_.reserve(objectives.size());
  for (SloObjective& objective : objectives) {
    State state;
    std::string labels =
        "slo=\"" + PrometheusEscapeLabel(objective.name) + "\"";
    state.gauge = &registry.GetGaugeWithLabels(
        "innet_slo_burning", labels,
        "1 while the named SLO breaches both burn-rate windows");
    state.gauge->Set(0.0);
    collector_.RetainWindow(std::max(objective.short_window_seconds,
                                     objective.long_window_seconds));
    state.objective = std::move(objective);
    states_.push_back(std::move(state));
  }
}

double SloEngine::Signal(const SloObjective& objective,
                         double window_seconds) const {
  switch (objective.signal) {
    case SloSignal::kP50:
      return collector_.WindowedQuantile(objective.metric, window_seconds,
                                         0.50);
    case SloSignal::kP95:
      return collector_.WindowedQuantile(objective.metric, window_seconds,
                                         0.95);
    case SloSignal::kP99:
      return collector_.WindowedQuantile(objective.metric, window_seconds,
                                         0.99);
    case SloSignal::kGauge:
      return collector_.WindowedMax(objective.metric, window_seconds);
    case SloSignal::kRate:
      return collector_.CounterRate(objective.metric, window_seconds);
  }
  return 0.0;
}

void SloEngine::Evaluate() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (State& state : states_) {
    const SloObjective& objective = state.objective;
    double short_signal = Signal(objective, objective.short_window_seconds);
    double long_signal = Signal(objective, objective.long_window_seconds);
    auto breaches = [&objective](double signal) {
      if (std::isnan(signal)) return false;
      return objective.below ? signal < objective.threshold
                             : signal > objective.threshold;
    };
    bool burning = breaches(short_signal) && breaches(long_signal);
    if (burning != state.burning) {
      state.burning = burning;
      state.gauge->Set(burning ? 1.0 : 0.0);
      INNET_LOG(WARN) << "slo " << objective.name
                      << (burning ? " BURNING" : " recovered")
                      << ": short=" << short_signal
                      << " long=" << long_signal
                      << " threshold=" << objective.threshold;
    }
  }
}

bool SloEngine::IsBurning(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const State& state : states_) {
    if (state.objective.name == name) return state.burning;
  }
  return false;
}

std::vector<std::string> SloEngine::Burning() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const State& state : states_) {
    if (state.burning) out.push_back(state.objective.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace innet::obs
