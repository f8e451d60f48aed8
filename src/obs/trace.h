// Sampled per-query stage traces (docs/OBSERVABILITY.md §2).
//
// A trace is a rendering of one answered engine query's QueryCostProfile
// (obs/query_cost.h), the record the engine fills for every query while a
// digest table, slow log or tracer listens. The Tracer copies 1 of every
// `sample_every` profiles into a ring allocated once at construction, so
// recording never allocates; QueryTrace values — stage names, offsets,
// nesting, annotations — are built only when the ring is read.
#ifndef INNET_OBS_TRACE_H_
#define INNET_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/query_cost.h"

namespace innet::obs {

/// One stage of a query trace.
struct TraceStage {
  std::string name;
  /// Offset of the stage start from the query start.
  double start_micros = 0.0;
  double elapsed_micros = 0.0;
  /// 0 for top-level stages, 1 for a stage nested inside one.
  int depth = 0;
};

/// Stage breakdown of one sampled engine query, rendered from its profile
/// (docs/OBSERVABILITY.md §2 maps each stage to its field):
///
///   cache_lookup          [0, cache_lookup)
///   boundary_resolution   [cache_lookup, resolve)  on a cache miss
///     degraded_reroute    ending at resolve        ... under a health view
///   form_integration      [resolve, total)         unless the region missed
///     or degraded_answer                           ... under a health view
///
/// annotated with cache_hit, estimate, missed, degraded and exec_micros.
/// The profile records the reroute's duration, not its offset, so that
/// nested stage is drawn flush with the end of its parent.
class QueryTrace {
 public:
  QueryTrace(uint64_t id, const QueryCostProfile& profile, double estimate,
             bool cache_hit);

  uint64_t id() const { return id_; }
  const std::vector<TraceStage>& stages() const { return stages_; }
  const std::vector<std::pair<std::string, double>>& annotations() const {
    return annotations_;
  }

  /// The query's whole evaluation time, its exec_micros.
  double TotalMicros() const { return total_micros_; }

 private:
  uint64_t id_;
  double total_micros_;
  std::vector<TraceStage> stages_;
  std::vector<std::pair<std::string, double>> annotations_;
};

/// Trace sampling and retention knobs.
struct TracerOptions {
  /// Sampled queries retained (oldest evicted first).
  size_t ring_capacity = 256;
  /// Sample 1 of every N queries; 0 disables tracing entirely.
  uint64_t sample_every = 1;
};

/// Samples answered queries' cost profiles into a fixed ring.
class Tracer {
 public:
  explicit Tracer(const TracerOptions& options);

  /// Offers one answered query; every `sample_every`-th (the first
  /// included) is copied into the ring. Thread-safe, allocation-free.
  void Record(const QueryCostProfile& profile, double estimate,
              bool cache_hit);

  /// Removes and returns every retained trace, oldest first.
  std::vector<std::unique_ptr<QueryTrace>> Drain();

  /// The retained traces, oldest first, without draining — the /traces
  /// telemetry endpoint reads the ring while queries keep arriving.
  std::vector<std::unique_ptr<QueryTrace>> SnapshotRing() const;

  /// Queries offered to Record.
  uint64_t Started() const {
    return started_.load(std::memory_order_relaxed);
  }
  /// Queries copied into the ring, evicted ones included.
  uint64_t Sampled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return written_;
  }

 private:
  struct Sample {
    uint64_t id = 0;
    QueryCostProfile profile;
    double estimate = 0.0;
    bool cache_hit = false;
  };

  /// Copies the retained samples, oldest first. Caller holds mutex_.
  std::vector<Sample> RetainedLocked() const;
  static std::vector<std::unique_ptr<QueryTrace>> Render(
      const std::vector<Sample>& samples);

  uint64_t sample_every_;
  std::atomic<uint64_t> started_{0};
  mutable std::mutex mutex_;
  std::vector<Sample> ring_;
  // Samples ever written (the next slot is written_ % capacity) and those
  // retained since the last Drain. Guarded by mutex_.
  uint64_t written_ = 0;
  size_t retained_ = 0;
};

}  // namespace innet::obs

#endif  // INNET_OBS_TRACE_H_
