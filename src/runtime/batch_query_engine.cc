#include "runtime/batch_query_engine.h"

#include <cmath>
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
      tracer_(options.tracer),
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
  if (health_ != nullptr) {
    last_health_generation_.store(health_->Generation(),
                                  std::memory_order_relaxed);
  }
  accuracy_ = options.accuracy;
  shadow_queue_limit_ = options.shadow_queue_limit;
  shadow_dropped_ = &registry_->GetCounter(
      "innet_shadow_dropped",
      "Shadow checks dropped because the shadow queue was at its budget");
  if (accuracy_ != nullptr) {
    shadow_processor_ = std::make_unique<core::UnsampledQueryProcessor>(
        core_.sampled().network());
    shadow_thread_ = std::thread([this] { ShadowLoop(); });
  }
}

BatchQueryEngine::~BatchQueryEngine() {
  if (shadow_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(shadow_mutex_);
      shadow_stop_ = true;
    }
    shadow_cv_.notify_all();
    shadow_thread_.join();
  }
}

std::shared_ptr<const core::ResolvedRegion> BatchQueryEngine::Resolve(
    const core::RangeQuery& query, core::BoundMode bound,
    obs::QueryTrace* trace, bool* was_cache_hit) {
  *was_cache_hit = false;
  RegionSignature key = SignRegion(query.junctions, bound);
  {
    obs::Span span(trace, "cache_lookup");
    if (std::shared_ptr<const core::ResolvedRegion> hit = cache_.Lookup(key)) {
      if (trace != nullptr) trace->Annotate("cache_hit", 1.0);
      *was_cache_hit = true;
      return hit;
    }
  }
  if (trace != nullptr) trace->Annotate("cache_hit", 0.0);
  obs::Span span(trace, "boundary_resolution");
  // Cold path: resolve through the calling worker's thread-local workspace
  // into an OWNED immutable entry — cached regions must not alias mutable
  // scratch. The copies are the cold path's only allocations; a warm
  // (cache-hit) query never reaches here.
  auto resolved = std::make_shared<core::ResolvedRegion>();
  core_.Resolve(query.junctions, bound, health_, degraded_options_,
                core::LocalWorkspace(), resolved.get(), trace);
  cache_.Insert(key, resolved);
  return resolved;
}

core::QueryAnswer BatchQueryEngine::AnswerOne(const core::RangeQuery& query,
                                              core::CountKind kind,
                                              core::BoundMode bound,
                                              obs::ExplainRecord* explain) {
  std::unique_ptr<obs::QueryTrace> trace =
      tracer_ != nullptr ? tracer_->StartQuery() : nullptr;
  util::Timer timer;
  bool cache_hit = false;
  const bool profiling = digest_ != nullptr || slowlog_ != nullptr;
  std::shared_ptr<const core::ResolvedRegion> resolved =
      Resolve(query, bound, trace.get(), &cache_hit);
  // Stage checkpoint for the cost profile — one clock read, taken only
  // when a digest table or slow log is listening AND the resolution did
  // real work. On a cache hit resolution is a hash probe, so charging it
  // zero keeps the warmest path free of the extra clock read.
  double resolve_micros =
      profiling && !cache_hit ? timer.ElapsedMicros() : 0.0;
  // Stack-assembled profile: plain stores plus the counts the resolution
  // fixed — no allocation, no extra passes on a warm cache hit.
  obs::QueryCostProfile profile;
  profile.path = !cache_enabled_ ? obs::QueryPathKind::kUncached
                 : cache_hit     ? obs::QueryPathKind::kCacheHit
                                 : obs::QueryPathKind::kCacheMiss;
  core::QueryAnswer answer;
  {
    obs::Span span(resolved->missed ? nullptr : trace.get(),
                   health_ != nullptr ? "degraded_answer" : "form_integration");
    answer = core_.Answer(*resolved, query, kind, bound,
                          health_ != nullptr ? &degraded_options_ : nullptr,
                          profiling ? &profile : nullptr);
  }
  if (answer.missed) {
    (bound == core::BoundMode::kLower ? missed_lower_ : missed_upper_)
        ->Increment();
  }
  if (answer.degraded) degraded_answers_->Increment();
  answer.exec_micros = timer.ElapsedMicros();
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
    profile.resolve_nanos = static_cast<uint64_t>(resolve_micros * 1000.0);
    profile.total_nanos =
        static_cast<uint64_t>(answer.exec_micros * 1000.0);
    profile.integrate_nanos =
        profile.total_nanos > profile.resolve_nanos
            ? profile.total_nanos - profile.resolve_nanos
            : 0;
    if (digest_ != nullptr) digest_->Record(profile);
    if (slowlog_ != nullptr && slowlog_->IsSlow(profile) &&
        slowlog_->Admit()) {
      obs::ExplainRecord record;
      if (explain == nullptr) explain_into(&record);
      slowlog_->Record(profile, explain != nullptr ? *explain : record);
    }
  }
  if (accuracy_ != nullptr) {
    MaybeEnqueueShadow(query, answer, kind, bound, resolved);
  }
  if (trace != nullptr) {
    trace->Annotate("estimate", answer.estimate);
    trace->Annotate("missed", answer.missed ? 1.0 : 0.0);
    trace->Annotate("degraded", answer.degraded ? 1.0 : 0.0);
    trace->Annotate("exec_micros", answer.exec_micros);
    tracer_->Finish(std::move(trace));
  }
  return answer;
}

void BatchQueryEngine::MaybeEnqueueShadow(
    const core::RangeQuery& query, const core::QueryAnswer& answer,
    core::CountKind kind, core::BoundMode bound,
    std::shared_ptr<const core::ResolvedRegion> resolved) {
  if (!accuracy_->ShouldShadow()) return;
  ShadowTask task;
  task.query = query;
  task.approx = answer.estimate;
  task.interval_width = answer.interval.Width();
  task.kind = kind;
  task.bound = bound;
  task.resolved = std::move(resolved);
  bool enqueued = false;
  {
    std::lock_guard<std::mutex> lock(shadow_mutex_);
    if (shadow_queue_.size() < shadow_queue_limit_) {
      shadow_queue_.push_back(std::move(task));
      ++shadow_inflight_;
      enqueued = true;
    }
  }
  if (enqueued) {
    shadow_cv_.notify_one();
  } else {
    shadow_dropped_->Increment();
  }
}

void BatchQueryEngine::ShadowLoop() {
  std::unique_lock<std::mutex> lock(shadow_mutex_);
  for (;;) {
    shadow_cv_.wait(lock, [this] {
      return shadow_stop_ || (!shadow_queue_.empty() && !batch_active_);
    });
    if (shadow_stop_) return;
    ShadowTask task = std::move(shadow_queue_.front());
    shadow_queue_.pop_front();
    lock.unlock();
    RunShadowTask(task);
    lock.lock();
    --shadow_inflight_;
    if (shadow_inflight_ == 0) shadow_drained_cv_.notify_all();
  }
}

void BatchQueryEngine::RunShadowTask(const ShadowTask& task) {
  core::QueryAnswer exact =
      shadow_processor_->Answer(task.query, task.kind);
  size_t region_cells = task.query.junctions.size();
  size_t resolved_cells = 0;
  if (task.resolved != nullptr) {
    for (uint32_t face : task.resolved->faces) {
      resolved_cells += core_.sampled().FaceSize(face);
    }
  }
  double deadspace =
      region_cells == 0
          ? 0.0
          : std::abs(static_cast<double>(resolved_cells) -
                     static_cast<double>(region_cells)) /
                static_cast<double>(region_cells);
  accuracy_->RecordComparison(task.approx, exact.estimate, region_cells,
                              deadspace, task.interval_width);
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
  if (accuracy_ == nullptr) return;
  std::lock_guard<std::mutex> lock(shadow_mutex_);
  batch_active_ = true;
}

void BatchQueryEngine::EndBatch() {
  if (accuracy_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(shadow_mutex_);
    batch_active_ = false;
  }
  shadow_cv_.notify_one();
}

void BatchQueryEngine::FlushShadow() {
  if (accuracy_ == nullptr) return;
  std::unique_lock<std::mutex> lock(shadow_mutex_);
  shadow_cv_.notify_one();
  shadow_drained_cv_.wait(lock, [this] { return shadow_inflight_ == 0; });
}

std::vector<core::QueryAnswer> BatchQueryEngine::AnswerBatch(
    const std::vector<core::RangeQuery>& queries, core::CountKind kind,
    core::BoundMode bound) {
  BeginBatch();
  std::vector<core::QueryAnswer> answers(queries.size());
  pool_.ParallelFor(queries.size(), [&](size_t i) {
    answers[i] = AnswerOne(queries[i], kind, bound);
  });
  EndBatch();
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
  EndBatch();
  return answers;
}

core::QueryAnswer BatchQueryEngine::Answer(const core::RangeQuery& query,
                                           core::CountKind kind,
                                           core::BoundMode bound,
                                           obs::ExplainRecord* explain) {
  BeginBatch();
  core::QueryAnswer answer = AnswerOne(query, kind, bound, explain);
  EndBatch();
  return answer;
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
