#include "runtime/batch_query_engine.h"

#include <utility>

#include "obs/flight_recorder.h"
#include "util/logging.h"
#include "util/timer.h"

namespace innet::runtime {

BatchQueryEngine::BatchQueryEngine(const core::SampledGraph& sampled,
                                   const forms::EdgeCountStore& store,
                                   const BatchEngineOptions& options)
    : BatchQueryEngine(core::AnswerCore(sampled, store), options) {}

BatchQueryEngine::BatchQueryEngine(const core::SampledGraph& sampled,
                                   const forms::FrozenStoreHandle& handle,
                                   const BatchEngineOptions& options)
    : BatchQueryEngine(core::AnswerCore(sampled, handle), options) {}

BatchQueryEngine::BatchQueryEngine(core::AnswerCore core,
                                   const BatchEngineOptions& options)
    : core_(std::move(core)),
      health_(options.health),
      degraded_options_(options.degraded),
      cache_enabled_(options.cache_capacity > 0),
      owned_registry_(options.registry != nullptr
                          ? nullptr
                          : std::make_unique<obs::MetricsRegistry>()),
      registry_(options.registry != nullptr ? options.registry
                                            : owned_registry_.get()),
      queries_answered_(&registry_->GetCounter(
          "innet_queries_answered",
          "Queries answered by the batch engine")),
      missed_lower_(&registry_->GetCounter(
          "innet_missed_lower",
          "Lower-bound queries with no satisfying sampled face")),
      missed_upper_(&registry_->GetCounter(
          "innet_missed_upper",
          "Upper-bound queries with no satisfying sampled face")),
      degraded_answers_(&registry_->GetCounter(
          "innet_degraded_answers",
          "Queries answered in degraded mode (boundary rerouted around "
          "faults)")),
      health_invalidations_(&registry_->GetCounter(
          "innet_health_invalidations",
          "Boundary-cache flushes triggered by health-generation changes")),
      store_invalidations_(&registry_->GetCounter(
          "innet_store_invalidations",
          "Boundary-cache flushes triggered by store-generation swaps")),
      latency_micros_(&registry_->GetHistogram(
          "innet_query_latency_micros",
          obs::Histogram::LatencyBoundsMicros(),
          "Per-query evaluation latency in microseconds")),
      cache_(options.cache_capacity, options.cache_shards,
             &registry_->GetCounter("innet_cache_hits",
                                    "Boundary-cache lookup hits"),
             &registry_->GetCounter("innet_cache_misses",
                                    "Boundary-cache lookup misses")),
      pool_(options.num_threads) {
  digest_ = options.digest;
  slowlog_ = options.slowlog;
  tracer_ = options.tracer;
  if (health_ != nullptr) {
    last_health_generation_.store(health_->Generation(),
                                  std::memory_order_relaxed);
  }
}

std::shared_ptr<const core::ResolvedRegion> BatchQueryEngine::Resolve(
    const core::RangeQuery& query, core::BoundMode bound,
    const util::Timer& timer, obs::QueryCostProfile* cost,
    bool* was_cache_hit) {
  RegionSignature key = SignRegion(query.junctions, bound);
  std::shared_ptr<const core::ResolvedRegion> hit = cache_.Lookup(key);
  if (cost != nullptr) {
    cost->cache_lookup_nanos = cost->resolve_nanos = timer.ElapsedNanos();
  }
  *was_cache_hit = hit != nullptr;
  if (hit != nullptr) return hit;
  // Cold path: resolve through the calling worker's thread-local workspace
  // into an OWNED immutable entry — cached regions must not alias mutable
  // scratch. The copies are the cold path's only allocations; a warm
  // (cache-hit) query never reaches here.
  auto resolved = std::make_shared<core::ResolvedRegion>();
  core_.Resolve(query.junctions, bound, health_, degraded_options_,
                core::LocalWorkspace(), resolved.get(), cost);
  cache_.Insert(key, resolved);
  if (cost != nullptr) cost->resolve_nanos = timer.ElapsedNanos();
  return resolved;
}

core::QueryAnswer BatchQueryEngine::AnswerOne(const core::RangeQuery& query,
                                              core::CountKind kind,
                                              core::BoundMode bound,
                                              obs::ExplainRecord* explain) {
  util::Timer timer;
  // One stack-assembled cost profile (plain stores, no allocation) whenever
  // a digest table, slow log or tracer listens. Its stage checkpoints are
  // the only clock reads beyond the latency pair, none without a listener.
  const bool profiling =
      digest_ != nullptr || slowlog_ != nullptr || tracer_ != nullptr;
  obs::QueryCostProfile profile;
  obs::QueryCostProfile* cost = profiling ? &profile : nullptr;
  bool cache_hit = false;
  std::shared_ptr<const core::ResolvedRegion> resolved =
      Resolve(query, bound, timer, cost, &cache_hit);
  profile.path = !cache_enabled_ ? obs::QueryPathKind::kUncached
                 : cache_hit     ? obs::QueryPathKind::kCacheHit
                                 : obs::QueryPathKind::kCacheMiss;
  core::QueryAnswer answer =
      core_.Answer(*resolved, query, kind, bound,
                   health_ != nullptr ? &degraded_options_ : nullptr, cost);
  if (answer.missed) {
    (bound == core::BoundMode::kLower ? missed_lower_ : missed_upper_)
        ->Increment();
  }
  if (answer.degraded) degraded_answers_->Increment();
  const uint64_t exec_nanos = timer.ElapsedNanos();
  answer.exec_micros = static_cast<double>(exec_nanos) / 1000.0;
  queries_answered_->Increment();
  latency_micros_->Observe(answer.exec_micros);
  // Explain records are assembled on request, or lazily for the
  // (rate-limited) slow queries that actually emit one.
  auto explain_into = [&](obs::ExplainRecord* record) {
    core_.Explain(*resolved, query, kind, bound, answer, record);
    record->cache_used = cache_enabled_;
    record->cache_hit = cache_hit;
  };
  if (explain != nullptr) explain_into(explain);
  if (profiling) {
    profile.total_nanos = exec_nanos;
    profile.integrate_nanos = exec_nanos - profile.resolve_nanos;
    if (tracer_ != nullptr) {
      tracer_->Record(profile, answer.estimate, cache_hit);
    }
    if (digest_ != nullptr) digest_->Record(profile);
    if (slowlog_ != nullptr && slowlog_->IsSlow(profile) &&
        slowlog_->Admit()) {
      obs::ExplainRecord record;
      if (explain == nullptr) explain_into(&record);
      slowlog_->Record(profile, explain != nullptr ? *explain : record);
    }
  }
  return answer;
}

void BatchQueryEngine::BeginBatch() {
  if (core_.FollowStore()) {
    // Conservative flush: no region resolved against the previous store
    // generation survives the swap, mirroring the health-generation path.
    cache_.Clear();
    store_invalidations_->Increment();
    obs::FlightRecorder::Global().Note(
        "engine", "attach_generation",
        static_cast<double>(core_.view().generation()));
  }
  if (health_ != nullptr) {
    uint64_t generation = health_->Generation();
    if (last_health_generation_.exchange(generation,
                                         std::memory_order_relaxed) !=
        generation) {
      cache_.Clear();
      health_invalidations_->Increment();
    }
  }
}

std::vector<core::QueryAnswer> BatchQueryEngine::AnswerBatch(
    const std::vector<core::RangeQuery>& queries, core::CountKind kind,
    core::BoundMode bound) {
  BeginBatch();
  std::vector<core::QueryAnswer> answers(queries.size());
  pool_.ParallelFor(queries.size(), [&](size_t i) {
    answers[i] = AnswerOne(queries[i], kind, bound);
  });
  obs::FlightRecorder::Global().Note("engine", "batch_queries",
                                     static_cast<double>(queries.size()));
  return answers;
}

std::vector<core::QueryAnswer> BatchQueryEngine::AnswerBatchExplained(
    const std::vector<core::RangeQuery>& queries, core::CountKind kind,
    core::BoundMode bound, std::vector<obs::ExplainRecord>* explains) {
  BeginBatch();
  explains->assign(queries.size(), obs::ExplainRecord{});
  std::vector<core::QueryAnswer> answers(queries.size());
  pool_.ParallelFor(queries.size(), [&](size_t i) {
    answers[i] = AnswerOne(queries[i], kind, bound, &(*explains)[i]);
  });
  return answers;
}

core::QueryAnswer BatchQueryEngine::Answer(const core::RangeQuery& query,
                                           core::CountKind kind,
                                           core::BoundMode bound,
                                           obs::ExplainRecord* explain) {
  BeginBatch();
  return AnswerOne(query, kind, bound, explain);
}

BatchEngineSnapshot BatchQueryEngine::Snapshot() const {
  BatchEngineSnapshot snap;
  snap.queries_answered = queries_answered_->Value();
  snap.cache_hits = cache_.Hits();
  snap.cache_misses = cache_.Misses();
  snap.missed_lower = missed_lower_->Value();
  snap.missed_upper = missed_upper_->Value();
  snap.degraded_answers = degraded_answers_->Value();
  snap.health_invalidations = health_invalidations_->Value();
  snap.store_invalidations = store_invalidations_->Value();
  if (latency_micros_->Count() > 0) {
    snap.latency_p50_micros = latency_micros_->Percentile(0.50);
    snap.latency_p95_micros = latency_micros_->Percentile(0.95);
  }
  return snap;
}

void BatchQueryEngine::ResetStats() {
  queries_answered_->Reset();
  missed_lower_->Reset();
  missed_upper_->Reset();
  degraded_answers_->Reset();
  health_invalidations_->Reset();
  store_invalidations_->Reset();
  latency_micros_->Reset();
  cache_.ResetCounters();
}

}  // namespace innet::runtime
