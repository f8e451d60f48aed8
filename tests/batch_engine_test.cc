#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/workload.h"
#include "faults/fault_model.h"
#include "forms/frozen_tracking_form.h"
#include "obs/metrics.h"
#include "obs/query_digest.h"
#include "obs/trace.h"
#include "runtime/batch_query_engine.h"
#include "runtime/boundary_cache.h"
#include "runtime/ingest_pipeline.h"
#include "sampling/samplers.h"
#include "util/thread_pool.h"

namespace innet::runtime {
namespace {

using core::BoundMode;
using core::CountKind;
using core::QueryAnswer;
using core::RangeQuery;

core::FrameworkOptions SmallOptions(uint64_t seed) {
  core::FrameworkOptions options;
  options.road.num_junctions = 250;
  options.traffic.num_trajectories = 400;
  options.seed = seed;
  return options;
}

// Everything except wall-clock time must match exactly.
void ExpectIdentical(const std::vector<QueryAnswer>& a,
                     const std::vector<QueryAnswer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].estimate, b[i].estimate) << "query " << i;
    EXPECT_EQ(a[i].missed, b[i].missed) << "query " << i;
    EXPECT_EQ(a[i].nodes_accessed, b[i].nodes_accessed) << "query " << i;
    EXPECT_EQ(a[i].edges_accessed, b[i].edges_accessed) << "query " << i;
  }
}

class BatchEngineFixture : public ::testing::Test {
 protected:
  BatchEngineFixture() : framework_(SmallOptions(11)) {
    core::WorkloadOptions wo;
    wo.area_fraction = 0.08;
    wo.horizon = framework_.Horizon();
    util::Rng rng = framework_.ForkRng();
    queries_ = GenerateWorkload(framework_.network(), wo, 40, rng);
    // Repeat the workload to give the boundary cache something to hit, the
    // access pattern of polling dashboards.
    std::vector<RangeQuery> repeated = queries_;
    for (int rep = 0; rep < 3; ++rep) {
      repeated.insert(repeated.end(), queries_.begin(), queries_.end());
    }
    queries_ = std::move(repeated);

    sampling::KdTreeSampler sampler;
    util::Rng drng = framework_.ForkRng();
    deployment_ = std::make_unique<core::Deployment>(
        framework_.DeployWithSampler(sampler,
                                     framework_.network().NumSensors() / 4,
                                     core::DeploymentOptions{}, drng));
  }

  std::vector<QueryAnswer> SerialReference(CountKind kind,
                                           BoundMode bound) const {
    core::SampledQueryProcessor processor = deployment_->processor();
    std::vector<QueryAnswer> answers;
    answers.reserve(queries_.size());
    for (const RangeQuery& q : queries_) {
      answers.push_back(processor.Answer(q, kind, bound));
    }
    return answers;
  }

  core::Framework framework_;
  std::vector<RangeQuery> queries_;
  std::unique_ptr<core::Deployment> deployment_;
};

TEST_F(BatchEngineFixture, MatchesSerialProcessorColdAndWarm) {
  for (BoundMode bound : {BoundMode::kLower, BoundMode::kUpper}) {
    for (CountKind kind : {CountKind::kStatic, CountKind::kTransient}) {
      std::vector<QueryAnswer> reference = SerialReference(kind, bound);

      BatchEngineOptions options;
      options.num_threads = 8;
      BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                              options);
      // Cache-cold pass.
      ExpectIdentical(engine.AnswerBatch(queries_, kind, bound), reference);
      // Cache-warm pass must reproduce the same answers from cached
      // boundaries.
      ExpectIdentical(engine.AnswerBatch(queries_, kind, bound), reference);
    }
  }
}

TEST_F(BatchEngineFixture, EightWorkersMatchSerialEngine) {
  // The ISSUE's stress shape: the same batch answered serially and with 8
  // workers must be identical, cache-cold and cache-warm.
  BatchEngineOptions serial_options;
  serial_options.num_threads = 0;
  BatchEngineOptions parallel_options;
  parallel_options.num_threads = 8;
  BatchQueryEngine serial(deployment_->graph(), deployment_->store(),
                          serial_options);
  BatchQueryEngine parallel(deployment_->graph(), deployment_->store(),
                            parallel_options);
  for (int pass = 0; pass < 2; ++pass) {  // Pass 0 cold, pass 1 warm.
    std::vector<QueryAnswer> s =
        serial.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
    std::vector<QueryAnswer> p =
        parallel.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
    ExpectIdentical(s, p);
  }
}

TEST_F(BatchEngineFixture, FrozenStoreMatchesTrackingFormUnderEightWorkers) {
  // The tentpole identity: a frozen (CSR + fused kernel) store must answer
  // every batch bit-identically to the TrackingForm it snapshots — under 8
  // workers, cache-cold and cache-warm (the TSan CI job runs this too, so
  // the frozen read path is also proven race-free).
  forms::FrozenTrackingForm frozen = deployment_->tracking_store()->Freeze();
  for (BoundMode bound : {BoundMode::kLower, BoundMode::kUpper}) {
    for (CountKind kind : {CountKind::kStatic, CountKind::kTransient}) {
      BatchEngineOptions options;
      options.num_threads = 8;
      BatchQueryEngine reference(deployment_->graph(), deployment_->store(),
                                 options);
      BatchQueryEngine fast(deployment_->graph(), frozen, options);
      for (int pass = 0; pass < 2; ++pass) {  // Pass 0 cold, pass 1 warm.
        std::vector<QueryAnswer> a = reference.AnswerBatch(queries_, kind,
                                                           bound);
        std::vector<QueryAnswer> b = fast.AnswerBatch(queries_, kind, bound);
        ExpectIdentical(a, b);
      }
    }
  }
}

TEST_F(BatchEngineFixture, FrozenStoreExplainRecordsAreIdentical) {
  forms::FrozenTrackingForm frozen = deployment_->tracking_store()->Freeze();
  BatchEngineOptions options;
  options.num_threads = 4;
  BatchQueryEngine reference(deployment_->graph(), deployment_->store(),
                             options);
  BatchQueryEngine fast(deployment_->graph(), frozen, options);
  std::vector<obs::ExplainRecord> ra;
  std::vector<obs::ExplainRecord> rb;
  std::vector<QueryAnswer> a = reference.AnswerBatchExplained(
      queries_, CountKind::kStatic, BoundMode::kLower, &ra);
  std::vector<QueryAnswer> b = fast.AnswerBatchExplained(
      queries_, CountKind::kStatic, BoundMode::kLower, &rb);
  ExpectIdentical(a, b);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].faces, rb[i].faces) << "query " << i;
    EXPECT_EQ(ra[i].answer, rb[i].answer) << "query " << i;
    EXPECT_EQ(ra[i].store, rb[i].store) << "query " << i;
    EXPECT_EQ(ra[i].store_raw_events, rb[i].store_raw_events) << "query " << i;
    EXPECT_EQ(ra[i].deadspace_fraction, rb[i].deadspace_fraction)
        << "query " << i;
  }
}

TEST_F(BatchEngineFixture, LearnedStoreReadsAreRaceFreeUnderWorkers) {
  // Learned deployment exercised concurrently — the TSan CI job runs this
  // to prove model Predict paths are pure reads (the polynomial models used
  // to refit lazily under const).
  core::DeploymentOptions learned_options;
  learned_options.store = core::StoreKind::kLearned;
  learned_options.model_type = learned::ModelType::kCubic;
  learned_options.buffer_capacity = 16;
  sampling::KdTreeSampler sampler;
  util::Rng rng = framework_.ForkRng();
  core::Deployment learned = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 4, learned_options, rng);

  BatchEngineOptions options;
  options.num_threads = 8;
  BatchQueryEngine engine(learned.graph(), learned.store(), options);
  core::SampledQueryProcessor processor = learned.processor();
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<QueryAnswer> batch =
        engine.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kUpper);
    ASSERT_EQ(batch.size(), queries_.size());
    for (size_t i = 0; i < queries_.size(); ++i) {
      QueryAnswer expect =
          processor.Answer(queries_[i], CountKind::kStatic, BoundMode::kUpper);
      EXPECT_DOUBLE_EQ(batch[i].estimate, expect.estimate);
    }
  }
}

TEST_F(BatchEngineFixture, SnapshotCountsCacheTraffic) {
  BatchEngineOptions options;
  options.num_threads = 4;
  options.cache_capacity = 4096;
  BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                          options);
  engine.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  BatchEngineSnapshot cold = engine.Snapshot();
  EXPECT_EQ(cold.queries_answered, queries_.size());
  EXPECT_GT(cold.cache_misses, 0u);
  // The workload repeats each distinct region 4x, so the cold pass already
  // hits on repetitions.
  EXPECT_GT(cold.cache_hits, 0u);
  EXPECT_GE(cold.latency_p95_micros, cold.latency_p50_micros);

  engine.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  BatchEngineSnapshot warm = engine.Snapshot();
  EXPECT_EQ(warm.queries_answered, 2 * queries_.size());
  // Second pass is all hits: misses stay where the cold pass left them.
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
}

TEST_F(BatchEngineFixture, SnapshotAgreesWithRegistryBitForBit) {
  // The snapshot is a compatibility view over the registry-backed metrics:
  // both read the SAME storage, so on a quiescent engine every exported
  // value must equal its snapshot counterpart exactly.
  obs::MetricsRegistry registry;
  BatchEngineOptions options;
  options.num_threads = 4;
  options.registry = &registry;
  BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                          options);
  engine.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  engine.AnswerBatch(queries_, CountKind::kTransient, BoundMode::kUpper);

  BatchEngineSnapshot snap = engine.Snapshot();
  auto counter = [&](const char* name) {
    return registry.GetCounter(name).Value();
  };
  EXPECT_EQ(snap.queries_answered, counter("innet_queries_answered"));
  EXPECT_EQ(snap.cache_hits, counter("innet_cache_hits"));
  EXPECT_EQ(snap.cache_misses, counter("innet_cache_misses"));
  EXPECT_EQ(snap.missed_lower, counter("innet_missed_lower"));
  EXPECT_EQ(snap.missed_upper, counter("innet_missed_upper"));
  EXPECT_EQ(snap.degraded_answers, counter("innet_degraded_answers"));
  EXPECT_EQ(snap.health_invalidations, counter("innet_health_invalidations"));
  obs::Histogram& latency = registry.GetHistogram(
      "innet_query_latency_micros", obs::Histogram::LatencyBoundsMicros());
  EXPECT_EQ(latency.Count(), 2 * queries_.size());
  EXPECT_EQ(snap.latency_p50_micros, latency.Percentile(0.50));
  EXPECT_EQ(snap.latency_p95_micros, latency.Percentile(0.95));

  // ResetStats zeroes the shared storage, so both views drop together.
  engine.ResetStats();
  EXPECT_EQ(engine.Snapshot().queries_answered, 0u);
  EXPECT_EQ(counter("innet_queries_answered"), 0u);
  EXPECT_EQ(counter("innet_cache_hits"), 0u);
}

double Annotation(const obs::QueryTrace& trace, const std::string& key) {
  for (const auto& [name, value] : trace.annotations()) {
    if (name == key) return value;
  }
  ADD_FAILURE() << "trace " << trace.id() << " lacks annotation " << key;
  return -1.0;
}

std::vector<std::string> StageNames(const obs::QueryTrace& trace) {
  std::vector<std::string> names;
  for (const obs::TraceStage& stage : trace.stages()) {
    names.push_back(stage.name);
  }
  return names;
}

TEST_F(BatchEngineFixture, TracerRecordsSampledStageBreakdowns) {
  obs::TracerOptions tracer_options;
  tracer_options.ring_capacity = 64;
  tracer_options.sample_every = 10;
  obs::Tracer tracer(tracer_options);
  BatchEngineOptions options;
  options.num_threads = 4;
  options.tracer = &tracer;
  BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                          options);
  engine.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  EXPECT_EQ(tracer.Started(), queries_.size());
  EXPECT_EQ(tracer.Sampled(), (queries_.size() + 9) / 10);

  std::vector<std::unique_ptr<obs::QueryTrace>> traces = tracer.Drain();
  EXPECT_EQ(traces.size(),
            std::min<size_t>(tracer.Sampled(), tracer_options.ring_capacity));
  for (const auto& trace : traces) {
    ASSERT_FALSE(trace->stages().empty());
    // Every sampled query starts with a cache lookup; non-missed ones then
    // either resolve the boundary (miss) or integrate straight away (hit).
    EXPECT_EQ(trace->stages().front().name, "cache_lookup");
    bool has_estimate = false;
    for (const auto& [key, value] : trace->annotations()) {
      if (key == "estimate") has_estimate = true;
    }
    EXPECT_TRUE(has_estimate);
    EXPECT_GE(trace->TotalMicros(), 0.0);
  }
  // Drain empties the ring.
  EXPECT_TRUE(tracer.Drain().empty());

  // Every query sampled, serially, so trace i is query i. A trace is its
  // query's cost profile: per served path the stages tile [0, exec_micros],
  // and the traced total time is the digest's to the nanosecond.
  obs::Tracer every(obs::TracerOptions{queries_.size(), 1});
  obs::QueryDigestTable digest;
  BatchEngineOptions serial;
  serial.tracer = &every;
  serial.digest = &digest;
  BatchQueryEngine traced(deployment_->graph(), deployment_->store(), serial);
  std::vector<QueryAnswer> answers =
      traced.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  traces = every.Drain();
  ASSERT_EQ(traces.size(), queries_.size());
  size_t hits = 0;
  double traced_micros = 0.0;
  for (size_t i = 0; i < traces.size(); ++i) {
    const obs::QueryTrace& trace = *traces[i];
    EXPECT_EQ(trace.id(), i);
    bool hit = Annotation(trace, "cache_hit") == 1.0;
    hits += hit ? 1 : 0;
    std::vector<std::string> want = {"cache_lookup"};
    if (!hit) want.push_back("boundary_resolution");
    if (!answers[i].missed) want.push_back("form_integration");
    EXPECT_EQ(StageNames(trace), want) << "query " << i;
    EXPECT_EQ(trace.TotalMicros(), answers[i].exec_micros) << "query " << i;
    EXPECT_EQ(Annotation(trace, "exec_micros"), answers[i].exec_micros);
    EXPECT_EQ(Annotation(trace, "estimate"), answers[i].estimate);
    double end = 0.0;
    for (const obs::TraceStage& stage : trace.stages()) {
      EXPECT_NEAR(stage.start_micros, end, 1e-9) << "query " << i;
      end = stage.start_micros + stage.elapsed_micros;
    }
    if (!answers[i].missed) {
      EXPECT_NEAR(end, trace.TotalMicros(), 1e-9) << "query " << i;
    }
    traced_micros += trace.TotalMicros();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, traces.size());
  double digest_micros = 0.0;
  for (const obs::QueryDigestRow& row : digest.TopK(SIZE_MAX)) {
    digest_micros += row.total_micros;
  }
  EXPECT_NEAR(traced_micros, digest_micros, 1e-9 * digest_micros);
}

TEST_F(BatchEngineFixture, TracerNestsTheDegradedRerouteInResolution) {
  faults::FaultOptions fault_options;
  fault_options.seed = 11;
  fault_options.dead_sensor_fraction = 0.12;
  faults::FaultModel model(framework_.network(), fault_options);
  obs::Tracer tracer(obs::TracerOptions{queries_.size(), 1});
  BatchEngineOptions options;
  options.health = &model;
  options.tracer = &tracer;
  BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                          options);
  std::vector<QueryAnswer> answers =
      engine.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  std::vector<std::unique_ptr<obs::QueryTrace>> traces = tracer.Drain();
  ASSERT_EQ(traces.size(), queries_.size());
  size_t degraded = 0;
  for (size_t i = 0; i < traces.size(); ++i) {
    const obs::QueryTrace& trace = *traces[i];
    if (answers[i].missed) continue;
    degraded += answers[i].degraded ? 1 : 0;
    EXPECT_EQ(Annotation(trace, "degraded"), answers[i].degraded ? 1.0 : 0.0);
    const std::vector<obs::TraceStage>& stages = trace.stages();
    if (Annotation(trace, "cache_hit") == 1.0) {
      EXPECT_EQ(StageNames(trace), (std::vector<std::string>{
                                       "cache_lookup", "degraded_answer"}));
      continue;
    }
    ASSERT_EQ(StageNames(trace),
              (std::vector<std::string>{"cache_lookup", "boundary_resolution",
                                        "degraded_reroute",
                                        "degraded_answer"}))
        << "query " << i;
    const obs::TraceStage& resolution = stages[1];
    const obs::TraceStage& reroute = stages[2];
    EXPECT_EQ(resolution.depth, 0);
    EXPECT_EQ(reroute.depth, 1);
    EXPECT_GE(reroute.start_micros, resolution.start_micros - 1e-9);
    EXPECT_NEAR(reroute.start_micros + reroute.elapsed_micros,
                resolution.start_micros + resolution.elapsed_micros, 1e-9);
    EXPECT_EQ(stages[3].depth, 0);
  }
  EXPECT_GT(degraded, 0u);
}

TEST_F(BatchEngineFixture, DisabledCacheStillAnswersCorrectly) {
  BatchEngineOptions options;
  options.num_threads = 3;
  options.cache_capacity = 0;
  BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                          options);
  ExpectIdentical(
      engine.AnswerBatch(queries_, CountKind::kTransient, BoundMode::kLower),
      SerialReference(CountKind::kTransient, BoundMode::kLower));
  EXPECT_EQ(engine.Snapshot().cache_hits, 0u);
  EXPECT_EQ(engine.CacheSize(), 0u);
}

TEST_F(BatchEngineFixture, TinyCacheEvictsButStaysCorrect) {
  BatchEngineOptions options;
  options.num_threads = 2;
  options.cache_capacity = 4;  // Far fewer entries than distinct regions.
  options.cache_shards = 2;
  BatchQueryEngine engine(deployment_->graph(), deployment_->store(),
                          options);
  ExpectIdentical(
      engine.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower),
      SerialReference(CountKind::kStatic, BoundMode::kLower));
  EXPECT_LE(engine.CacheSize(), 4u);
}

TEST(RegionSignatureTest, DistinguishesRegionsAndBounds) {
  std::vector<graph::NodeId> a = {1, 2, 3};
  std::vector<graph::NodeId> b = {1, 2, 4};
  std::vector<graph::NodeId> prefix = {1, 2};
  EXPECT_TRUE(SignRegion(a, BoundMode::kLower) ==
              SignRegion(a, BoundMode::kLower));
  EXPECT_FALSE(SignRegion(a, BoundMode::kLower) ==
               SignRegion(b, BoundMode::kLower));
  EXPECT_FALSE(SignRegion(a, BoundMode::kLower) ==
               SignRegion(prefix, BoundMode::kLower));
  EXPECT_FALSE(SignRegion(a, BoundMode::kLower) ==
               SignRegion(a, BoundMode::kUpper));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    util::ThreadPool pool(threads);
    constexpr size_t kCount = 997;
    std::vector<std::atomic<int>> touched(kCount);
    pool.ParallelFor(kCount, [&](size_t i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(touched[i].load(), 1) << "index " << i << " threads "
                                      << threads;
    }
  }
}

TEST(ThreadPoolTest, WaitDrainsSubmittedTasks) {
  util::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 50);
}

// Handle mode (live ingestion): cold/warm identity across a store swap.
// Boundary-cache entries resolved against generation N must not be served
// at N+1 — the swap flushes the cache (counted by store_invalidations) and
// both the cold and the warm pass after the swap answer bit-identically to
// a fresh engine built from scratch over the full stream.
TEST_F(BatchEngineFixture, HandleModeColdWarmIdentityAcrossStoreSwap) {
  std::vector<mobility::CrossingEvent> events;
  for (const mobility::CrossingEvent& e : framework_.network().events()) {
    if (deployment_->graph().IsMonitored(e.edge)) events.push_back(e);
  }
  ASSERT_GT(events.size(), 10u);
  size_t half = events.size() / 2;

  IngestPipeline pipeline(framework_.network().TotalEdgeSpace());
  for (size_t i = 0; i < half; ++i) pipeline.Push(events[i]);
  pipeline.CloseEpochAndWait();

  BatchEngineOptions options;
  options.num_threads = 4;
  BatchQueryEngine live(deployment_->graph(), pipeline.handle(), options);

  // Cold + warm over the half stream; the warm pass must hit the cache.
  std::vector<QueryAnswer> half_cold =
      live.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  std::vector<QueryAnswer> half_warm =
      live.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  ExpectIdentical(half_cold, half_warm);
  EXPECT_GT(live.Snapshot().cache_hits, 0u);
  EXPECT_EQ(live.Snapshot().store_invalidations, 0u);

  // Swap: ingest the second half and publish the next generation while the
  // engine's cache is warm with generation-N boundaries.
  for (size_t i = half; i < events.size(); ++i) pipeline.Push(events[i]);
  pipeline.CloseEpochAndWait();

  std::vector<QueryAnswer> full_cold =
      live.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  std::vector<QueryAnswer> full_warm =
      live.AnswerBatch(queries_, CountKind::kStatic, BoundMode::kLower);
  ExpectIdentical(full_cold, full_warm);
  EXPECT_EQ(live.Snapshot().store_invalidations, 1u);

  // The swap actually changed answers (the regression would otherwise pass
  // with a stale cache serving half-stream counts).
  size_t moved = 0;
  for (size_t i = 0; i < full_cold.size(); ++i) {
    if (full_cold[i].estimate != half_cold[i].estimate) ++moved;
  }
  EXPECT_GT(moved, 0u);

  // Fresh engine over a from-scratch freeze of the full stream: the
  // post-swap answers are bit-identical, cold and warm alike.
  const forms::TrackingForm* tracking = deployment_->tracking_store();
  ASSERT_NE(tracking, nullptr);
  forms::FrozenTrackingForm scratch = tracking->Freeze();
  BatchEngineOptions fresh_options;
  fresh_options.num_threads = 4;
  BatchQueryEngine fresh(deployment_->graph(), scratch, fresh_options);
  ExpectIdentical(full_cold, fresh.AnswerBatch(queries_, CountKind::kStatic,
                                               BoundMode::kLower));
}

}  // namespace
}  // namespace innet::runtime
