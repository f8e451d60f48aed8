#include "obs/trace.h"

#include <algorithm>

namespace innet::obs {

namespace {

double Micros(uint64_t nanos) { return static_cast<double>(nanos) / 1000.0; }

}  // namespace

QueryTrace::QueryTrace(uint64_t id, const QueryCostProfile& profile,
                       double estimate, bool cache_hit)
    : id_(id), total_micros_(Micros(profile.total_nanos)) {
  const double resolved = Micros(profile.resolve_nanos);
  stages_.push_back({"cache_lookup", 0.0, Micros(profile.cache_lookup_nanos),
                     0});
  if (!cache_hit) {
    stages_.push_back(
        {"boundary_resolution", Micros(profile.cache_lookup_nanos),
         Micros(profile.resolve_nanos - profile.cache_lookup_nanos), 0});
    if (profile.health_aware && !profile.missed) {
      const double reroute = Micros(profile.reroute_nanos);
      stages_.push_back({"degraded_reroute", resolved - reroute, reroute, 1});
    }
  }
  if (!profile.missed) {
    stages_.push_back(
        {profile.health_aware ? "degraded_answer" : "form_integration",
         resolved, Micros(profile.integrate_nanos), 0});
  }
  annotations_ = {{"cache_hit", cache_hit ? 1.0 : 0.0},
                  {"estimate", estimate},
                  {"missed", profile.missed ? 1.0 : 0.0},
                  {"degraded", profile.degraded ? 1.0 : 0.0},
                  {"exec_micros", total_micros_}};
}

Tracer::Tracer(const TracerOptions& options)
    : sample_every_(options.sample_every), ring_(options.ring_capacity) {}

void Tracer::Record(const QueryCostProfile& profile, double estimate,
                    bool cache_hit) {
  uint64_t seq = started_.fetch_add(1, std::memory_order_relaxed);
  if (sample_every_ == 0 || ring_.empty() || seq % sample_every_ != 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ring_[written_++ % ring_.size()] = {seq, profile, estimate, cache_hit};
  retained_ = std::min(retained_ + 1, ring_.size());
}

std::vector<Tracer::Sample> Tracer::RetainedLocked() const {
  std::vector<Sample> samples;
  samples.reserve(retained_);
  for (uint64_t i = written_ - retained_; i < written_; ++i) {
    samples.push_back(ring_[i % ring_.size()]);
  }
  return samples;
}

std::vector<std::unique_ptr<QueryTrace>> Tracer::Render(
    const std::vector<Sample>& samples) {
  std::vector<std::unique_ptr<QueryTrace>> traces;
  traces.reserve(samples.size());
  for (const Sample& s : samples) {
    traces.push_back(std::make_unique<QueryTrace>(s.id, s.profile, s.estimate,
                                                  s.cache_hit));
  }
  return traces;
}

std::vector<std::unique_ptr<QueryTrace>> Tracer::Drain() {
  std::vector<Sample> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples = RetainedLocked();
    retained_ = 0;
  }
  return Render(samples);
}

std::vector<std::unique_ptr<QueryTrace>> Tracer::SnapshotRing() const {
  std::vector<Sample> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples = RetainedLocked();
  }
  return Render(samples);
}

}  // namespace innet::obs
