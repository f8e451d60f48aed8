// Live-ingest pipeline suite: every published generation of sealed runs
// (merges included) must be bit-identical to a from-scratch Freeze() of
// its prefix of the stream, handle-mode readers must follow published
// generations (the frozen-store staleness regression), epoch-aligned
// deliveries must land in exactly one epoch, and one writer plus eight
// readers must be race-free, with and without the WAL and its seal worker
// (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
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
#include "io/event_log.h"
#include "io/serialize.h"
#include "runtime/ingest_pipeline.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace innet::runtime {
namespace {

using forms::FrozenTrackingForm;
using forms::TrackingForm;
using graph::EdgeId;
using mobility::CrossingEvent;

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

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
template <typename Store>  // FrozenTrackingForm or FrozenRuns.
void ExpectBitIdentical(const Store& frozen, const TrackingForm& reference) {
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
  // Each epoch is its own sorted run; the two overlap in time, and both
  // the slot sequence the store reports and the two-run merge of them are
  // the merged sequence.
  const size_t slot = FrozenTrackingForm::Slot(0, true);
  std::vector<double> got;
  snap.store->AppendSlot(slot, &got);
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 5.0, 6.0, 8.0}));
  ASSERT_EQ(snap.store->num_runs(), 2u);
  FrozenTrackingForm merged(*snap.store->runs()[0], *snap.store->runs()[1]);
  const double* begin = merged.SlotBegin(slot);
  EXPECT_EQ(std::vector<double>(begin, begin + 5),
            (std::vector<double>{1.0, 2.0, 5.0, 6.0, 8.0}));
}

// Many small epochs, so the merge thread folds runs while the freezer
// keeps publishing: every generation must hold exactly its prefix, and
// merges must keep the run count logarithmic.
TEST(IngestPipelineTest, EveryGenerationEqualsItsPrefixWhileRunsMerge) {
  const size_t kNumEdges = 30;
  std::vector<CrossingEvent> stream = RandomStream(37, kNumEdges, 6000);
  IngestPipeline pipeline(kNumEdges);
  TrackingForm prefix(kNumEdges);
  size_t most_runs = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    pipeline.Push(stream[i]);
    prefix.RecordTraversal(stream[i].edge, stream[i].forward, stream[i].time);
    if ((i + 1) % 40 == 0 || i + 1 == stream.size()) {
      pipeline.CloseEpochAndWait();
      forms::FrozenStoreHandle::Snapshot snap = pipeline.handle().Acquire();
      ExpectBitIdentical(*snap.store, prefix);
      if (HasFatalFailure()) return;
      most_runs = std::max(most_runs, snap.store->num_runs());
    }
  }
  EXPECT_EQ(pipeline.EpochsPublished(), stream.size() / 40);
  EXPECT_GT(most_runs, 1u);
  // 150 epochs of 40 events: a factor-2 merge rule that keeps up holds
  // about log2(150) runs; a stalled merge thread would hold ~150.
  EXPECT_LT(most_runs, 40u);
}

// A snapshot cut from a multi-run generation is byte-for-byte the snapshot
// of a from-scratch freeze of the same events, with the same meta.
TEST(IngestPipelineTest, SnapshotOfRunsIsByteIdenticalToScratchSnapshot) {
  const size_t kNumEdges = 20;
  std::vector<CrossingEvent> stream = RandomStream(39, kNumEdges, 1500);
  char tmpl[] = "/tmp/innet_ingest_snap_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  ASSERT_FALSE(dir.empty());
  std::string scratch_dir = dir + "/scratch";
  std::filesystem::create_directories(scratch_dir);
  IngestPipelineOptions options;
  options.durability.wal_dir = dir + "/wal";
  options.durability.snapshot_every_epochs = 1;
  size_t multi_run_snapshots = 0;
  {
    IngestPipeline pipeline(kNumEdges, options);
    TrackingForm prefix(kNumEdges);
    for (size_t i = 0; i < stream.size(); ++i) {
      pipeline.Push(stream[i]);
      prefix.RecordTraversal(stream[i].edge, stream[i].forward,
                             stream[i].time);
      if ((i + 1) % 100 != 0) continue;
      pipeline.CloseEpochAndWait();
      forms::FrozenStoreHandle::Snapshot snap = pipeline.handle().Acquire();
      if (snap.store->num_runs() > 1) ++multi_run_snapshots;
      uint64_t epoch = (i + 1) / 100;
      char name[64];
      std::snprintf(name, sizeof(name), "/snap-%016llu.snap",
                    static_cast<unsigned long long>(epoch));
      auto loaded = io::LoadFrozenSnapshot(options.durability.wal_dir + name);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded->meta.generation, snap.generation);
      EXPECT_EQ(loaded->meta.covered_events, i + 1);
      std::string scratch_path = scratch_dir + name;
      ASSERT_TRUE(
          io::SaveFrozenSnapshot(prefix.Freeze(), loaded->meta, scratch_path)
              .ok());
      EXPECT_EQ(ReadBytes(options.durability.wal_dir + name),
                ReadBytes(scratch_path))
          << "epoch " << epoch;
    }
  }
  EXPECT_GT(multi_run_snapshots, 0u);
  std::filesystem::remove_all(dir);
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

// One writer pushes the whole monitored stream in ~40 auto epochs while
// eight readers query through handle-mode processors and the merge thread
// folds runs. Run under TSan in CI: readers must never block on the swap
// and never race the freezer. Afterwards the published store is the
// scratch freeze, and answers like it.
void RunWriterAndEightReaders(
    IngestPipelineOptions options, const std::vector<CrossingEvent>& events,
    const std::vector<core::RangeQuery>& queries,
    const core::SampledGraph& graph, const TrackingForm& tracking) {
  options.epoch_event_target = events.size() / 40 + 1;  // ~40 auto epochs.
  IngestPipeline pipeline(tracking.num_edges(), options);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<uint64_t> answers{0};
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&, r] {
      // One processor per reader thread; all share the handle.
      core::SampledQueryProcessor processor(graph, pipeline.handle());
      core::QueryWorkspace workspace;
      size_t i = static_cast<size_t>(r);
      while (!done.load(std::memory_order_relaxed)) {
        const core::RangeQuery& q = queries[i++ % queries.size()];
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
  FrozenTrackingForm scratch = tracking.Freeze();
  core::SampledQueryProcessor reference(graph, scratch);
  core::SampledQueryProcessor live(graph, pipeline.handle());
  for (const core::RangeQuery& q : queries) {
    EXPECT_EQ(
        reference.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower)
            .estimate,
        live.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower)
            .estimate);
  }
  ExpectBitIdentical(*pipeline.handle().Acquire().store, tracking);
}

TEST_F(IngestDeploymentFixture, ConcurrentWriterAndEightReaders) {
  std::vector<CrossingEvent> events = MonitoredEvents();
  ASSERT_FALSE(events.empty());
  const TrackingForm* tracking = deployment_->tracking_store();
  ASSERT_NE(tracking, nullptr);
  RunWriterAndEightReaders(IngestPipelineOptions{}, events, queries_,
                           deployment_->graph(), *tracking);
}

// The same race with durability on: every publish runs its seal on the
// seal worker beside a WAL append + fsync'd commit, and a snapshot every
// few epochs, while readers and the merge thread run (TSan in CI). The
// log then replays every event, in push order.
TEST_F(IngestDeploymentFixture, DurableWriterAndEightReaders) {
  std::vector<CrossingEvent> events = MonitoredEvents();
  ASSERT_FALSE(events.empty());
  const TrackingForm* tracking = deployment_->tracking_store();
  ASSERT_NE(tracking, nullptr);
  char tmpl[] = "/tmp/innet_ingest_durable_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  ASSERT_FALSE(dir.empty());
  IngestPipelineOptions options;
  options.shards = 1;  // Log order is then push order.
  options.durability.wal_dir = dir + "/wal";
  options.durability.snapshot_every_epochs = 8;
  RunWriterAndEightReaders(options, events, queries_,
                           deployment_->graph(), *tracking);

  auto replay = io::ReplayEventLog(options.durability.wal_dir);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->durable_events, events.size());
  EXPECT_EQ(replay->discarded_events, 0u);
  ASSERT_EQ(replay->events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(replay->events[i].edge, events[i].edge) << i;
    ASSERT_EQ(replay->events[i].forward, events[i].forward) << i;
    ASSERT_EQ(replay->events[i].time, events[i].time) << i;
  }
  std::filesystem::remove_all(dir);
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

// ---- freshness -------------------------------------------------------------

// innet_ingest_visibility_lag_micros measures from the oldest push of the
// epoch it publishes, and each epoch restarts that clock.
TEST(IngestPipelineTest, VisibilityLagRunsFromTheEpochsOldestPush) {
  const auto kPause = std::chrono::milliseconds(250);
  const double kPauseMicros = 250000.0;
  obs::MetricsRegistry registry;
  IngestPipelineOptions options;
  options.registry = &registry;
  options.shards = 1;
  IngestPipeline pipeline(4, options);
  obs::Histogram& lag =
      registry.GetHistogram("innet_ingest_visibility_lag_micros",
                            obs::Histogram::DurationBoundsMicros());

  pipeline.Push({0, true, 1.0});
  std::this_thread::sleep_for(kPause);
  pipeline.Push({0, true, 2.0});
  pipeline.CloseEpochAndWait();
  ASSERT_EQ(lag.Count(), 1u);
  const double first_lag = lag.Sum();
  EXPECT_GE(first_lag, kPauseMicros) << "the epoch's first push counts";

  pipeline.Push({0, true, 3.0});
  pipeline.CloseEpochAndWait();
  ASSERT_EQ(lag.Count(), 2u);
  EXPECT_LT(lag.Sum() - first_lag, kPauseMicros)
      << "the next epoch restarts the clock";
}

}  // namespace
}  // namespace innet::runtime
