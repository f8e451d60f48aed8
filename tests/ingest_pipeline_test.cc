// Live-ingest pipeline suite: incremental re-freeze must be bit-identical
// to a from-scratch Freeze() of the same stream, handle-mode readers must
// follow published generations (the frozen-store staleness regression),
// epoch-aligned deliveries must land in exactly one epoch, and one writer
// plus eight readers must be race-free (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <chrono>
#include <thread>
#include <tuple>
#include <vector>

#include "core/event_buffer.h"
#include "core/framework.h"
#include "core/query_processor.h"
#include "core/workload.h"
#include "forms/frozen_tracking_form.h"
#include "forms/store_handle.h"
#include "forms/tracking_form.h"
#include "runtime/ingest_pipeline.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace innet::runtime {
namespace {

using forms::FrozenTrackingForm;
using forms::TrackingForm;
using graph::EdgeId;
using mobility::CrossingEvent;

// Random event stream in global time order (so per-slot order is
// non-decreasing and a reference TrackingForm can replay it directly),
// with duplicates and ~20% silent slots, as in frozen_form_test.cc.
std::vector<CrossingEvent> RandomStream(uint64_t seed, size_t num_edges,
                                        size_t num_events) {
  util::Rng rng(seed);
  std::vector<CrossingEvent> events;
  events.reserve(num_events);
  std::vector<bool> silent(2 * num_edges);
  for (size_t s = 0; s < silent.size(); ++s) silent[s] = rng.Bernoulli(0.2);
  while (events.size() < num_events) {
    EdgeId e = static_cast<EdgeId>(rng.UniformIndex(num_edges));
    bool forward = rng.Bernoulli(0.5);
    if (silent[FrozenTrackingForm::Slot(e, forward)]) continue;
    double t = rng.Uniform(0.0, 1000.0);
    if (rng.Bernoulli(0.1)) t = std::floor(t);  // Encourage duplicates.
    events.push_back({e, forward, t});
  }
  std::sort(events.begin(), events.end(),
            [](const CrossingEvent& a, const CrossingEvent& b) {
              return a.time < b.time;
            });
  return events;
}

// Asserts `frozen` is bit-identical to `reference` (a from-scratch
// TrackingForm over the same stream): per-slot counts plus CountUpTo at
// every stored timestamp and a nudge on each side.
void ExpectBitIdentical(const FrozenTrackingForm& frozen,
                        const TrackingForm& reference) {
  ASSERT_EQ(frozen.num_edges(), reference.num_edges());
  ASSERT_EQ(frozen.TotalEvents(), reference.TotalEvents());
  for (EdgeId e = 0; e < reference.num_edges(); ++e) {
    for (bool forward : {true, false}) {
      ASSERT_EQ(frozen.EventCount(e, forward),
                reference.EventCount(e, forward))
          << "edge " << e << " fwd " << forward;
      for (double t : reference.Sequence(e, forward)) {
        for (double probe :
             {t, std::nextafter(t, -1e30), std::nextafter(t, 1e30)}) {
          ASSERT_EQ(frozen.CountUpTo(e, forward, probe),
                    reference.CountUpTo(e, forward, probe))
              << "edge " << e << " fwd " << forward << " t " << probe;
        }
      }
    }
  }
}

TEST(IngestPipelineTest, IncrementalRefreezeMatchesScratchFreeze) {
  const size_t kNumEdges = 40;
  std::vector<CrossingEvent> stream = RandomStream(31, kNumEdges, 4000);

  TrackingForm reference(kNumEdges);
  for (const CrossingEvent& e : stream) {
    reference.RecordTraversal(e.edge, e.forward, e.time);
  }

  // Replay the same stream through the pipeline in irregular epochs; every
  // intermediate publish must also be exact for its prefix.
  IngestPipelineOptions options;
  options.registry = nullptr;  // Global registry is fine for a test.
  IngestPipeline pipeline(kNumEdges, options);
  util::Rng rng(32);
  TrackingForm prefix(kNumEdges);
  for (size_t i = 0; i < stream.size(); ++i) {
    pipeline.Push(stream[i]);
    prefix.RecordTraversal(stream[i].edge, stream[i].forward, stream[i].time);
    if (rng.Bernoulli(0.002) || i + 1 == stream.size()) {
      pipeline.CloseEpochAndWait();
      forms::FrozenStoreHandle::Snapshot snap = pipeline.handle().Acquire();
      ExpectBitIdentical(*snap.store, prefix);
    }
  }
  EXPECT_EQ(pipeline.EventsIngested(), stream.size());
  EXPECT_GE(pipeline.EpochsPublished(), 1u);

  forms::FrozenStoreHandle::Snapshot final_snap = pipeline.handle().Acquire();
  ExpectBitIdentical(*final_snap.store, reference);
  // Empty close: no new generation.
  pipeline.CloseEpochAndWait();
  EXPECT_EQ(pipeline.handle().Generation(), final_snap.generation);
}

TEST(IngestPipelineTest, OutOfOrderWithinEpochIsSorted) {
  // The pipeline accepts per-slot disorder inside one epoch (multi-source
  // sinks with skewed watermarks) and sorts during the scatter pass.
  IngestPipeline pipeline(4);
  pipeline.Push({0, true, 5.0});
  pipeline.Push({0, true, 2.0});
  pipeline.Push({0, true, 8.0});
  pipeline.CloseEpochAndWait();
  // The next epoch interleaves strictly before the stored history.
  pipeline.Push({0, true, 1.0});
  pipeline.Push({0, true, 6.0});
  pipeline.CloseEpochAndWait();
  forms::FrozenStoreHandle::Snapshot snap = pipeline.handle().Acquire();
  ASSERT_EQ(snap.store->EventCount(0, true), 5u);
  const double* begin = snap.store->SlotBegin(FrozenTrackingForm::Slot(0, true));
  std::vector<double> got(begin, begin + 5);
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 5.0, 6.0, 8.0}));
}

// Deployment-scale fixture: replay the network's monitored event stream
// through the pipeline and compare handle-mode processors against the
// one-shot frozen path.
class IngestDeploymentFixture : public ::testing::Test {
 protected:
  IngestDeploymentFixture() : framework_(Options()) {}

  void SetUp() override {
    sampling::KdTreeSampler sampler;
    util::Rng rng = framework_.ForkRng();
    deployment_ = std::make_unique<core::Deployment>(
        framework_.DeployWithSampler(
            sampler, framework_.network().NumSensors() / 5,
            core::DeploymentOptions{}, rng));
    core::WorkloadOptions wo;
    wo.area_fraction = 0.05;
    wo.horizon = framework_.Horizon();
    queries_ = core::GenerateWorkload(framework_.network(), wo, 12, rng);
  }

  static core::FrameworkOptions Options() {
    core::FrameworkOptions options;
    options.road.num_junctions = 250;
    options.traffic.num_trajectories = 300;
    options.seed = 21;
    return options;
  }

  // The monitored slice of the network stream — what Deployment replays
  // into its own store.
  std::vector<CrossingEvent> MonitoredEvents() const {
    std::vector<CrossingEvent> events;
    for (const CrossingEvent& e : framework_.network().events()) {
      if (deployment_->graph().IsMonitored(e.edge)) events.push_back(e);
    }
    return events;
  }

  core::Framework framework_;
  std::unique_ptr<core::Deployment> deployment_;
  std::vector<core::RangeQuery> queries_;
};

TEST_F(IngestDeploymentFixture, HandleModeAnswersMatchScratchFreeze) {
  std::vector<CrossingEvent> events = MonitoredEvents();
  ASSERT_FALSE(events.empty());

  IngestPipeline pipeline(framework_.network().TotalEdgeSpace());
  core::SampledQueryProcessor live(deployment_->graph(), pipeline.handle());
  // Ingest in 7 epochs, querying between them (the processor must follow
  // every swap; intermediate answers are exercised, final ones pinned).
  size_t chunk = events.size() / 7 + 1;
  for (size_t begin = 0; begin < events.size(); begin += chunk) {
    size_t end = std::min(begin + chunk, events.size());
    for (size_t i = begin; i < end; ++i) pipeline.Push(events[i]);
    pipeline.CloseEpochAndWait();
    live.Answer(queries_.front(), core::CountKind::kStatic,
                core::BoundMode::kLower);
  }

  const TrackingForm* tracking = deployment_->tracking_store();
  ASSERT_NE(tracking, nullptr);
  FrozenTrackingForm scratch = tracking->Freeze();
  core::SampledQueryProcessor reference(deployment_->graph(), scratch);
  for (const core::RangeQuery& q : queries_) {
    for (core::BoundMode bound :
         {core::BoundMode::kLower, core::BoundMode::kUpper}) {
      for (core::CountKind kind :
           {core::CountKind::kStatic, core::CountKind::kTransient}) {
        core::QueryAnswer a = reference.Answer(q, kind, bound);
        core::QueryAnswer b = live.Answer(q, kind, bound);
        EXPECT_EQ(a.estimate, b.estimate);
        EXPECT_EQ(a.missed, b.missed);
      }
      for (size_t steps : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
        std::vector<double> a = reference.AnswerSeries(q, bound, steps);
        std::vector<double> b = live.AnswerSeries(q, bound, steps);
        ASSERT_EQ(a.size(), b.size()) << "steps=" << steps;
        for (size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i], b[i]) << "steps=" << steps << " i=" << i;
        }
      }
    }
  }
}

// THE staleness regression (observe → query → observe → query): a
// handle-mode processor must reflect events ingested after construction.
// Before the generation-stamped handle, processors latched the frozen
// store once and kept serving the stale snapshot forever.
TEST_F(IngestDeploymentFixture, ProcessorReflectsEventsIngestedAfterQuery) {
  std::vector<CrossingEvent> events = MonitoredEvents();
  ASSERT_GT(events.size(), 10u);
  size_t half = events.size() / 2;

  // Reference stores for each stage.
  TrackingForm first_half(framework_.network().TotalEdgeSpace());
  TrackingForm full(framework_.network().TotalEdgeSpace());
  for (size_t i = 0; i < events.size(); ++i) {
    if (i < half) {
      first_half.RecordTraversal(events[i].edge, events[i].forward,
                                 events[i].time);
    }
    full.RecordTraversal(events[i].edge, events[i].forward, events[i].time);
  }
  FrozenTrackingForm frozen_half = first_half.Freeze();
  FrozenTrackingForm frozen_full = full.Freeze();
  core::SampledQueryProcessor ref_half(deployment_->graph(), frozen_half);
  core::SampledQueryProcessor ref_full(deployment_->graph(), frozen_full);

  // A query whose answer the second half of the stream actually changes —
  // without one the regression could pass vacuously.
  const core::RangeQuery* sensitive = nullptr;
  for (const core::RangeQuery& q : queries_) {
    double a = ref_half
                   .Answer(q, core::CountKind::kStatic, core::BoundMode::kLower)
                   .estimate;
    double b = ref_full
                   .Answer(q, core::CountKind::kStatic, core::BoundMode::kLower)
                   .estimate;
    if (a != b) {
      sensitive = &q;
      break;
    }
  }
  ASSERT_NE(sensitive, nullptr)
      << "no query distinguishes the half-stream from the full stream";

  IngestPipeline pipeline(framework_.network().TotalEdgeSpace());
  core::SampledQueryProcessor live(deployment_->graph(), pipeline.handle());

  // Observe → query.
  for (size_t i = 0; i < half; ++i) pipeline.Push(events[i]);
  pipeline.CloseEpochAndWait();
  core::QueryAnswer after_half = live.Answer(
      *sensitive, core::CountKind::kStatic, core::BoundMode::kLower);
  EXPECT_EQ(after_half.estimate,
            ref_half
                .Answer(*sensitive, core::CountKind::kStatic,
                        core::BoundMode::kLower)
                .estimate);

  // Observe → query again: the answer must move with the new events.
  for (size_t i = half; i < events.size(); ++i) pipeline.Push(events[i]);
  pipeline.CloseEpochAndWait();
  core::QueryAnswer after_full = live.Answer(
      *sensitive, core::CountKind::kStatic, core::BoundMode::kLower);
  EXPECT_EQ(after_full.estimate,
            ref_full
                .Answer(*sensitive, core::CountKind::kStatic,
                        core::BoundMode::kLower)
                .estimate);
  EXPECT_NE(after_full.estimate, after_half.estimate);
}

// Satellite audit: events arriving exactly on an epoch-close boundary must
// land in exactly one epoch, through the reorder buffer AND the pipeline.
// Replays the same stream with adversarial epoch alignments (closes at
// exact event timestamps, duplicates redelivered across the boundary) and
// requires the identical final store every time.
TEST(IngestPipelineTest, EpochAlignedDeliveriesLandInExactlyOneEpoch) {
  const size_t kNumEdges = 12;
  std::vector<CrossingEvent> stream = RandomStream(41, kNumEdges, 600);
  // Force a cluster of events EXACTLY on the future epoch boundaries.
  std::vector<double> boundaries;
  for (size_t i = 100; i < stream.size(); i += 100) {
    boundaries.push_back(stream[i].time);
    stream[i - 1].time = stream[i].time;  // Same instant, earlier edge slot.
    stream[i - 1].edge = stream[i].edge;
    stream[i - 1].forward = !stream[i].forward;
  }
  // The reorder buffer suppresses exact duplicates; drop them from the
  // stream so the scratch reference sees the same admitted set.
  std::sort(stream.begin(), stream.end(),
            [](const CrossingEvent& a, const CrossingEvent& b) {
              return std::tie(a.time, a.edge, a.forward) <
                     std::tie(b.time, b.edge, b.forward);
            });
  stream.erase(std::unique(stream.begin(), stream.end(),
                           [](const CrossingEvent& a, const CrossingEvent& b) {
                             return a.time == b.time && a.edge == b.edge &&
                                    a.forward == b.forward;
                           }),
               stream.end());

  TrackingForm reference(kNumEdges);
  for (const CrossingEvent& e : stream) {
    reference.RecordTraversal(e.edge, e.forward, e.time);
  }

  // Alignment A: close exactly when the stream reaches each boundary
  // timestamp. Alignment B: one close at the end. Both must agree with the
  // scratch freeze — no drop, no double-delivery.
  for (int aligned : {1, 0}) {
    IngestPipeline pipeline(kNumEdges);
    core::EventReorderBuffer buffer(5.0, pipeline.MakeSink());
    size_t next_boundary = 0;
    for (const CrossingEvent& e : stream) {
      ASSERT_TRUE(buffer.Push(e));
      if (aligned != 0 && next_boundary < boundaries.size() &&
          e.time >= boundaries[next_boundary]) {
        // Adversarial close exactly at the boundary: flush the reorder
        // window into this epoch, seal it, then redeliver the boundary
        // event — the duplicate must be suppressed, not double-ingested.
        buffer.Flush();
        pipeline.CloseEpochAndWait();
        EXPECT_FALSE(buffer.Push(e));
        ++next_boundary;
      }
    }
    buffer.Flush();
    pipeline.CloseEpochAndWait();
    EXPECT_EQ(buffer.Dropped(), 0u);
    forms::FrozenStoreHandle::Snapshot snap = pipeline.handle().Acquire();
    ExpectBitIdentical(*snap.store, reference);
  }
}

// One writer ingesting while eight readers query through handle-mode
// processors. Run under TSan in CI: readers must never block on the swap
// and never race the freezer.
TEST_F(IngestDeploymentFixture, ConcurrentWriterAndEightReaders) {
  std::vector<CrossingEvent> events = MonitoredEvents();
  ASSERT_FALSE(events.empty());

  IngestPipelineOptions options;
  options.epoch_event_target = events.size() / 40 + 1;  // ~40 auto epochs.
  IngestPipeline pipeline(framework_.network().TotalEdgeSpace(), options);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<uint64_t> answers{0};
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&, r] {
      // One processor per reader thread; all share the handle.
      core::SampledQueryProcessor processor(deployment_->graph(),
                                            pipeline.handle());
      core::QueryWorkspace workspace;
      size_t i = static_cast<size_t>(r);
      while (!done.load(std::memory_order_relaxed)) {
        const core::RangeQuery& q = queries_[i++ % queries_.size()];
        core::QueryAnswer a =
            processor.Answer(q, core::CountKind::kStatic,
                             core::BoundMode::kLower, nullptr, &workspace);
        EXPECT_GE(a.estimate, 0.0);
        answers.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (const CrossingEvent& e : events) pipeline.Push(e);
  pipeline.CloseEpochAndWait();
  // On a loaded machine the writer can outrun reader-thread startup; keep
  // the readers alive until at least one query has finished so the "reads
  // proceed under ingest" assertion below is about the code, not the
  // scheduler.
  while (answers.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(answers.load(), 0u);

  // After the dust settles the published store is the full stream.
  const TrackingForm* tracking = deployment_->tracking_store();
  ASSERT_NE(tracking, nullptr);
  FrozenTrackingForm scratch = tracking->Freeze();
  core::SampledQueryProcessor reference(deployment_->graph(), scratch);
  core::SampledQueryProcessor live(deployment_->graph(), pipeline.handle());
  for (const core::RangeQuery& q : queries_) {
    EXPECT_EQ(
        reference.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower)
            .estimate,
        live.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower)
            .estimate);
  }
}

// Satellite fix: waiting on a ticket CloseEpoch() never issued used to
// block forever (the freezer can only publish up to `requested_`). It must
// CHECK-fail instead.
TEST(IngestPipelineTest, WaitForNeverIssuedTicketDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        IngestPipeline pipeline(4);
        pipeline.Push({0, true, 1.0});
        uint64_t ticket = pipeline.CloseEpoch();
        pipeline.WaitForTicket(ticket + 1);  // Never issued: deadlock bait.
      },
      "ticket");
}

// Satellite regression for the MakeSink() dangling-`this` hazard: the
// documented contract is "sink dies before pipeline". This test pins the
// CORRECT ordering under TSan — reorder buffers flushing concurrently from
// another thread, then joined, then the pipeline destroyed — so any future
// destructor change that lets the freezer tear down while a sink-held
// Push() can still run shows up as a TSan race or use-after-free here.
TEST(IngestPipelineTest, SinkOutlivedByPipelineUnderConcurrentFlush) {
  const size_t kNumEdges = 8;
  std::vector<CrossingEvent> stream = RandomStream(51, kNumEdges, 2000);
  TrackingForm reference(kNumEdges);

  auto pipeline = std::make_unique<IngestPipeline>(kNumEdges);
  {
    // Sink scope: strictly inside the pipeline's lifetime.
    core::EventReorderBuffer buffer(5.0, pipeline->MakeSink());
    std::thread closer([&] {
      // Concurrent epoch closes race the pushes — freezer snips while the
      // sink appends.
      for (int i = 0; i < 50; ++i) pipeline->CloseEpoch();
    });
    // The buffer suppresses exact duplicates (RandomStream manufactures
    // them), so the reference tracks what it actually admits.
    for (const CrossingEvent& e : stream) {
      if (buffer.Push(e)) reference.RecordTraversal(e.edge, e.forward, e.time);
    }
    closer.join();
    buffer.Flush();
    pipeline->CloseEpochAndWait();
    EXPECT_EQ(buffer.Dropped(), 0u);  // In-order stream: nothing late.
  }  // Buffer (and the captured sink) destroyed FIRST...
  forms::FrozenStoreHandle::Snapshot snap = pipeline->handle().Acquire();
  ExpectBitIdentical(*snap.store, reference);
  pipeline.reset();  // ...then the pipeline. The only safe order.
}

// ---- backpressure ---------------------------------------------------------

TEST(IngestPipelineTest, BlockPolicyLosesNothingAndBoundsTheBuffer) {
  const size_t kNumEdges = 8;
  std::vector<CrossingEvent> stream = RandomStream(52, kNumEdges, 3000);
  TrackingForm reference(kNumEdges);
  for (const CrossingEvent& e : stream) {
    reference.RecordTraversal(e.edge, e.forward, e.time);
  }
  IngestPipelineOptions options;
  options.max_buffered_events = 64;
  options.overload_policy = OverloadPolicy::kBlock;
  IngestPipeline pipeline(kNumEdges, options);
  for (const CrossingEvent& e : stream) {
    EXPECT_EQ(pipeline.Push(e), PushResult::kAccepted);
  }
  pipeline.CloseEpochAndWait();
  EXPECT_EQ(pipeline.overload().Lost(), 0u);
  EXPECT_EQ(pipeline.EventsIngested(), stream.size());
  forms::FrozenStoreHandle::Snapshot snap = pipeline.handle().Acquire();
  ExpectBitIdentical(*snap.store, reference);  // Backpressure, zero loss.
}

TEST(IngestPipelineTest, RejectPolicyRefusesAtCapacityAndAccounts) {
  IngestPipelineOptions options;
  options.shards = 1;
  options.max_buffered_events = 10;
  options.overload_policy = OverloadPolicy::kReject;
  IngestPipeline pipeline(4, options);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int i = 0; i < 25; ++i) {
    PushResult r = pipeline.Push({0, true, static_cast<double>(i)});
    (r == PushResult::kAccepted ? accepted : rejected)++;
  }
  EXPECT_EQ(accepted, 10u);
  EXPECT_EQ(rejected, 15u);
  IngestOverloadReport report = pipeline.overload();
  EXPECT_EQ(report.rejected_events, 15u);
  EXPECT_EQ(report.shed_events, 0u);
  // Rejections start at t=10 (the first refused push) and run to t=24.
  EXPECT_EQ(report.lost_min_time, 10.0);
  EXPECT_EQ(report.lost_max_time, 24.0);
  EXPECT_EQ(pipeline.EventsIngested(), 10u);
  // After a drain the pipeline accepts again.
  pipeline.CloseEpochAndWait();
  EXPECT_EQ(pipeline.Push({0, true, 99.0}), PushResult::kAccepted);

  // Losses surface as a degraded-mode drop-rate bound: 15 lost out of 26
  // offered (10 + 15 + the post-drain accept).
  core::DegradedOptions degraded = pipeline.OverloadDegradedOptions();
  EXPECT_NEAR(degraded.drop_rate_bound, 15.0 / 26.0, 1e-12);
  // An existing (larger) bound is never weakened.
  core::DegradedOptions strict;
  strict.drop_rate_bound = 0.9;
  EXPECT_EQ(pipeline.OverloadDegradedOptions(strict).drop_rate_bound, 0.9);
}

TEST(IngestPipelineTest, ShedOldestDropsHistoryKeepsFreshest) {
  IngestPipelineOptions options;
  options.shards = 1;
  options.max_buffered_events = 8;
  options.overload_policy = OverloadPolicy::kShedOldest;
  IngestPipeline pipeline(4, options);
  for (int i = 0; i < 20; ++i) {
    PushResult r = pipeline.Push({0, true, static_cast<double>(i)});
    if (i < 8) {
      EXPECT_EQ(r, PushResult::kAccepted);
    } else {
      EXPECT_EQ(r, PushResult::kShedOldest);
    }
  }
  IngestOverloadReport report = pipeline.overload();
  EXPECT_EQ(report.shed_events, 12u);
  EXPECT_EQ(report.lost_min_time, 0.0);   // Oldest go first...
  EXPECT_EQ(report.lost_max_time, 11.0);  // ...newest survive.
  pipeline.CloseEpochAndWait();
  forms::FrozenStoreHandle::Snapshot snap = pipeline.handle().Acquire();
  ASSERT_EQ(snap.store->EventCount(0, true), 8u);
  // The buffer holds exactly the 8 freshest events: 12..19.
  EXPECT_EQ(snap.store->CountUpTo(0, true, 11.5), 0u);
  EXPECT_EQ(snap.store->CountUpTo(0, true, 19.5), 8u);
}

}  // namespace
}  // namespace innet::runtime
