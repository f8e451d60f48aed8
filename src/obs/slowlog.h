// Rate-limited structured slow-query log (docs/OBSERVABILITY.md §9).
//
// Queries whose total latency crosses a pinned threshold emit ONE
// JSON-lines record carrying the full cost profile and the query's
// ExplainRecord. A token bucket (kBurst records back to back, refilled at
// kMaxRecordsPerSec) bounds the emission rate, so a pathological workload
// cannot turn the log into its own outage; suppressed records are counted
// (`innet_slowlog_suppressed_total`) instead of silently dropped. The last
// kKeepLast records stay in memory for /queryz?slow=1.
//
// Warm-path contract: IsSlow() is an inline threshold compare — the only
// cost the 99.9% of fast queries pay. Admit() and Record() run only for
// slow queries, where a mutex and a file append are noise against the
// query's own latency.
#ifndef INNET_OBS_SLOWLOG_H_
#define INNET_OBS_SLOWLOG_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/query_cost.h"
#include "util/timer.h"

namespace innet::obs {

struct SlowQueryLogOptions {
  /// Latency threshold: a query is slow when total_nanos >= this many
  /// microseconds. Must be > 0.
  double threshold_micros = 10000.0;

  /// JSON-lines output file, appended and flushed per record; "" keeps
  /// the log memory-only (the ring still fills).
  std::string path;

  /// Backs `innet_slowlog_records_total` / `innet_slowlog_suppressed_total`;
  /// nullptr selects the process global registry.
  MetricsRegistry* registry = nullptr;
};

/// Threshold + rate-limit + sink for slow-query records. Thread-safe:
/// IsSlow is lock-free; Admit/Record serialize on one mutex (slow path
/// only, by construction).
class SlowQueryLog {
 public:
  /// Token bucket refill rate and size, and the in-memory ring's length.
  static constexpr double kMaxRecordsPerSec = 10.0;
  static constexpr size_t kBurst = 20;
  static constexpr size_t kKeepLast = 64;

  explicit SlowQueryLog(const SlowQueryLogOptions& options);
  ~SlowQueryLog();
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// The warm-path gate: pure threshold compare, no locks, no side
  /// effects.
  bool IsSlow(const QueryCostProfile& profile) const {
    return profile.total_nanos >= threshold_nanos_;
  }

  /// Charges the token bucket. True = caller should build the explain
  /// record and call Record(); false = over budget, the suppression
  /// counter was incremented and nothing else happens.
  bool Admit();

  /// Formats one JSON record (profile + explain), appends it to the file
  /// (when configured) and to the in-memory ring. Call only after Admit()
  /// returned true.
  void Record(const QueryCostProfile& profile, const ExplainRecord& explain);

  /// Most recent records, oldest first — each entry one complete JSON
  /// object, as written to the file.
  std::vector<std::string> RecentRecords() const;

  uint64_t Records() const { return records_->Value(); }
  uint64_t Suppressed() const { return suppressed_->Value(); }

 private:
  SlowQueryLogOptions options_;
  uint64_t threshold_nanos_;

  Counter* records_;
  Counter* suppressed_;

  mutable std::mutex mutex_;
  // Token bucket state (guarded by mutex_): refilled from the wall clock
  // on every Admit.
  double tokens_;
  util::Timer refill_timer_;
  std::deque<std::string> ring_;
  std::ofstream file_;
};

}  // namespace innet::obs

#endif  // INNET_OBS_SLOWLOG_H_
