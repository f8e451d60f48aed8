// Parallel batch query engine.
//
// Serving layer over a frozen deployment: a fixed worker pool answers
// batches of range queries concurrently against one shared SampledGraph and
// EdgeCountStore, with a sharded LRU cache of resolved region boundaries so
// repeated/overlapping queries skip face resolution entirely.
//
// Safety contract (see docs/API.md §"Thread safety"): the graph and store
// must be FROZEN — fully constructed and fully ingested — before the first
// AnswerBatch call. Every store shipped in this repo (TrackingForm,
// learned::BufferedEdgeStore, learned::RollingWindowStore,
// privacy::PrivateEdgeStore) has a pure const read path, so concurrent
// reads are race-free; concurrent mutation is not.
//
// Determinism: for a given batch, estimates and access counts are
// byte-identical whether the batch runs serially, on 8 workers, cache-cold
// or cache-warm — a cached boundary is the same edge sequence a fresh
// resolution produces, and each answer is computed independently from it.
// Only the wall-clock fields differ.
#ifndef INNET_RUNTIME_BATCH_QUERY_ENGINE_H_
#define INNET_RUNTIME_BATCH_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/answer_core.h"
#include "core/health.h"
#include "core/query.h"
#include "core/sampled_graph.h"
#include "forms/edge_count_store.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/query_cost.h"
#include "obs/query_digest.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "runtime/boundary_cache.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace innet::runtime {

/// Engine construction knobs.
struct BatchEngineOptions {
  /// Worker threads; 0 means serial execution on the calling thread.
  size_t num_threads = 0;

  /// Total boundary-cache entries, split over up to
  /// BoundaryCache::kMaxShards lock shards; 0 disables caching.
  size_t cache_capacity = 4096;

  /// Optional health view (docs/FAULTS.md). When set, queries whose
  /// boundary touches edges owned by failed sensors are answered in
  /// degraded mode — rerouted around the dead faces with an interval
  /// result — and the boundary cache is invalidated whenever the view's
  /// Generation() changes. Must outlive the engine. The view may be
  /// updated between AnswerBatch calls, but not during one.
  const core::SensorHealthView* health = nullptr;

  /// Slack knobs for degraded answers (ignored without `health`).
  core::DegradedOptions degraded;

  /// Metrics registry backing the engine's counters and latency histogram
  /// (docs/OBSERVABILITY.md). nullptr (default) gives the engine a PRIVATE
  /// registry, keeping Snapshot() strictly per-engine; serving binaries
  /// pass &obs::MetricsRegistry::Global() (as tools/innet_query does) so
  /// the engine's metrics export alongside the rest of the process.
  /// Engines sharing one registry share metric storage — exported values
  /// then aggregate across engines while Snapshot() reads that same
  /// storage, so single-engine processes see identical numbers in both
  /// views. Must outlive the engine when provided.
  obs::MetricsRegistry* registry = nullptr;

  /// Optional per-query stage tracer. When set, every answered query's
  /// cost profile is offered to it, and the sampled ones are kept as stage
  /// breakdowns (cache lookup, boundary resolution, degraded reroute, form
  /// integration). Must outlive the engine.
  obs::Tracer* tracer = nullptr;

  /// Optional query digest table (docs/OBSERVABILITY.md §9). When set,
  /// every answered query's cost profile folds into it — lock-free,
  /// allocation-free, a dozen relaxed adds per query. Must outlive the
  /// engine.
  obs::QueryDigestTable* digest = nullptr;

  /// Optional slow-query log. Fast queries pay one inline threshold
  /// compare; queries crossing it (and admitted by the log's rate limit)
  /// assemble a full ExplainRecord and emit a structured record. Must
  /// outlive the engine.
  obs::SlowQueryLog* slowlog = nullptr;
};

/// Point-in-time engine counters — a compatibility view over the
/// registry-backed metrics (the engine's counters ARE the exported
/// `innet_*` metrics; Snapshot reads the same storage the exporters
/// serialize, so the two agree exactly). Latency percentiles come from the
/// `innet_query_latency_micros` histogram and cover the queries answered
/// since construction (or the last ResetStats); as bucket-interpolated
/// quantiles their error is at most one bucket width.
struct BatchEngineSnapshot {
  uint64_t queries_answered = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Queries that found no satisfying face, per bound mode (§5.5 misses).
  uint64_t missed_lower = 0;
  uint64_t missed_upper = 0;
  /// Queries answered in degraded mode (boundary rerouted around faults).
  uint64_t degraded_answers = 0;
  /// Cache flushes triggered by health-generation changes.
  uint64_t health_invalidations = 0;
  /// Cache flushes triggered by store-generation swaps (handle mode).
  uint64_t store_invalidations = 0;
  double latency_p50_micros = 0.0;
  double latency_p95_micros = 0.0;
};

/// Answers query batches concurrently over one frozen deployment. One
/// engine owns one pool + one cache; AnswerBatch parallelizes WITHIN a
/// batch and must not itself be called concurrently on the same engine.
class BatchQueryEngine {
 public:
  /// Holds references only; `sampled` and `store` must outlive the engine.
  BatchQueryEngine(const core::SampledGraph& sampled,
                   const forms::EdgeCountStore& store,
                   const BatchEngineOptions& options);

  /// Handle mode (live ingestion, runtime::IngestPipeline): the engine
  /// follows the frozen store published through `handle`. Each
  /// AnswerBatch/Answer call checks the handle's generation before fanning
  /// out — on a swap it re-acquires the store and flushes the boundary
  /// cache (counted by `innet_store_invalidations`), so no entry resolved
  /// against generation N is ever served at N+1. A whole batch sees ONE
  /// generation; stores published mid-batch apply from the next call.
  BatchQueryEngine(const core::SampledGraph& sampled,
                   const forms::FrozenStoreHandle& handle,
                   const BatchEngineOptions& options);

  /// Answers every query under one (kind, bound) configuration. The result
  /// vector is index-aligned with `queries`.
  std::vector<core::QueryAnswer> AnswerBatch(
      const std::vector<core::RangeQuery>& queries, core::CountKind kind,
      core::BoundMode bound);

  /// AnswerBatch plus per-query provenance: `explains` (non-null) is
  /// resized and filled index-aligned with `queries`. Explain records are
  /// deterministic — identical serially or on 8 workers, cache-cold or
  /// cache-warm.
  std::vector<core::QueryAnswer> AnswerBatchExplained(
      const std::vector<core::RangeQuery>& queries, core::CountKind kind,
      core::BoundMode bound, std::vector<obs::ExplainRecord>* explains);

  /// Single-query convenience going through the same cache + counters.
  /// `explain` (optional) receives the answer's provenance.
  core::QueryAnswer Answer(const core::RangeQuery& query, core::CountKind kind,
                           core::BoundMode bound,
                           obs::ExplainRecord* explain = nullptr);

  BatchEngineSnapshot Snapshot() const;

  /// Drops every cached boundary (counters are kept).
  void ClearCache() { cache_.Clear(); }

  /// Zeroes counters and latency samples (the cache is kept).
  void ResetStats();

  size_t NumThreads() const { return pool_.NumThreads(); }
  size_t CacheSize() const { return cache_.Size(); }

 private:
  /// Cache-through resolution of one query region under `bound` (through
  /// the core, under the health view when set). `cost` (optional) receives
  /// the probe, resolution and reroute times, read off `timer`.
  std::shared_ptr<const core::ResolvedRegion> Resolve(
      const core::RangeQuery& query, core::BoundMode bound,
      const util::Timer& timer, obs::QueryCostProfile* cost,
      bool* was_cache_hit);

  core::QueryAnswer AnswerOne(const core::RangeQuery& query,
                              core::CountKind kind, core::BoundMode bound,
                              obs::ExplainRecord* explain = nullptr);

  /// Opens an AnswerBatch/Answer call, once per entry point before the
  /// worker fan-out, so every worker of a batch reads one consistent store
  /// and health view: follows a swapped store (handle mode) or a moved
  /// health generation by flushing the cache.
  void BeginBatch();

  /// Shared delegate of the public constructors.
  BatchQueryEngine(core::AnswerCore core, const BatchEngineOptions& options);

  // The answer core and its store view (fused kernels on frozen stores,
  // bit-identical results either way); in handle mode the view pins the
  // current epoch's store while workers read it.
  core::AnswerCore core_;
  const core::SensorHealthView* health_;
  core::DegradedOptions degraded_options_;
  bool cache_enabled_ = false;

  // Cost-profile listeners (options.digest / options.slowlog /
  // options.tracer).
  obs::QueryDigestTable* digest_ = nullptr;
  obs::SlowQueryLog* slowlog_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  // Private registry when the options carried none; registry_ points at
  // whichever backs this engine.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;

  // Registry-backed metrics (see docs/OBSERVABILITY.md for the naming
  // scheme). Resolved once at construction; increments are per-thread
  // sharded and contention-free.
  obs::Counter* queries_answered_;
  obs::Counter* missed_lower_;
  obs::Counter* missed_upper_;
  obs::Counter* degraded_answers_;
  obs::Counter* health_invalidations_;
  obs::Counter* store_invalidations_;
  obs::Histogram* latency_micros_;

  BoundaryCache cache_;
  util::ThreadPool pool_;
  std::atomic<uint64_t> last_health_generation_{0};
};

}  // namespace innet::runtime

#endif  // INNET_RUNTIME_BATCH_QUERY_ENGINE_H_
