// Crash-recovery suite (runtime/recovery.h + faults/crash_points.h): a
// durable pipeline killed at ANY armed crash point — or by raw SIGKILL —
// must recover bit-identically to the last durable epoch, across a seed
// matrix; a resumed pipeline must continue the stream and stay durable;
// and deployment-scale query answers from a recovered store must match an
// uninterrupted run exactly (AnswerSeries identity).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/query_processor.h"
#include "core/workload.h"
#include "faults/crash_points.h"
#include "forms/frozen_tracking_form.h"
#include "forms/tracking_form.h"
#include "runtime/ingest_pipeline.h"
#include "runtime/recovery.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace innet::runtime {
namespace {

using forms::FrozenTrackingForm;
using forms::TrackingForm;
using graph::EdgeId;
using mobility::CrossingEvent;

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/innet_recovery_test_XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// Same stream generator as ingest_pipeline_test.cc: global time order,
// duplicates, silent slots.
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
    if (rng.Bernoulli(0.1)) t = std::floor(t);
    events.push_back({e, forward, t});
  }
  std::sort(events.begin(), events.end(),
            [](const CrossingEvent& a, const CrossingEvent& b) {
              return a.time < b.time;
            });
  return events;
}

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

constexpr size_t kNumEdges = 16;
constexpr size_t kNumEvents = 1200;
constexpr size_t kEpochEvery = 100;

// The durable ingest run every crash-matrix child executes: deterministic
// epoch boundaries so the durable event count is always a push-order
// prefix cut at an epoch close the crash allowed to commit.
void DurableIngestRun(const std::string& wal_dir,
                      const std::vector<CrossingEvent>& stream,
                      size_t snapshot_every, size_t stop_after = SIZE_MAX) {
  IngestPipelineOptions options;
  options.durability.wal_dir = wal_dir;
  options.durability.snapshot_every_epochs = snapshot_every;
  IngestPipeline pipeline(kNumEdges, options);
  for (size_t i = 0; i < stream.size() && i < stop_after; ++i) {
    pipeline.Push(stream[i]);
    if ((i + 1) % kEpochEvery == 0) pipeline.CloseEpochAndWait();
  }
  pipeline.CloseEpochAndWait();
}

// Recovers `wal_dir` and asserts the store is exactly the push-order
// prefix of `stream` the log claims durable.
void ExpectRecoversDurablePrefix(const std::string& wal_dir,
                                 const std::vector<CrossingEvent>& stream,
                                 const std::string& context) {
  RecoveryOptions options;
  options.wal_dir = wal_dir;
  options.num_edges = kNumEdges;
  RecoveryManager manager(options);
  util::StatusOr<RecoveredState> state = manager.Recover();
  ASSERT_TRUE(state.ok()) << context << ": " << state.status().ToString();
  ASSERT_LE(state->durable_events, stream.size()) << context;
  TrackingForm prefix(kNumEdges);
  for (size_t i = 0; i < state->durable_events; ++i) {
    prefix.RecordTraversal(stream[i].edge, stream[i].forward, stream[i].time);
  }
  SCOPED_TRACE(context);
  ExpectBitIdentical(*state->store, prefix);
}

// ---- crash-point registry -------------------------------------------------

TEST(CrashPointRegistryTest, ArmDisarmAndCounting) {
  faults::CrashPointRegistry& registry = faults::CrashPointRegistry::Global();
  EXPECT_FALSE(registry.Armed());
  // Unreachable hit count: Reach() counts but never fires.
  registry.Arm("wal:pre-fsync", 1u << 30);
  EXPECT_TRUE(registry.Armed());
  EXPECT_EQ(registry.ArmedPoint(), "wal:pre-fsync");
  uint64_t before = registry.HitCount("wal:pre-fsync");
  INNET_CRASH_POINT("wal:pre-fsync");
  INNET_CRASH_POINT("wal:pre-fsync");
  INNET_CRASH_POINT("wal:mid-segment");  // Different point, also censused.
  EXPECT_EQ(registry.HitCount("wal:pre-fsync"), before + 2);
  EXPECT_GE(registry.HitCount("wal:mid-segment"), 1u);
  registry.Disarm();
  EXPECT_FALSE(registry.Armed());
  EXPECT_EQ(registry.ArmedPoint(), "");
}

TEST(CrashPointRegistryTest, SeedMatrixCoversEveryKnownPoint) {
  // ArmFromSeed must reach every known point across a modest seed range —
  // otherwise the CI matrix silently stops exercising some crash site.
  faults::CrashPointRegistry& registry = faults::CrashPointRegistry::Global();
  std::vector<bool> covered(faults::KnownCrashPoints().size(), false);
  for (uint64_t seed = 0; seed < 64; ++seed) {
    registry.ArmFromSeed(seed, 1u << 30);  // Huge hits: never fires.
    const std::string armed = registry.ArmedPoint();
    for (size_t i = 0; i < faults::KnownCrashPoints().size(); ++i) {
      if (faults::KnownCrashPoints()[i] == armed) covered[i] = true;
    }
  }
  registry.Disarm();
  for (size_t i = 0; i < covered.size(); ++i) {
    EXPECT_TRUE(covered[i]) << "seed matrix never arms "
                            << faults::KnownCrashPoints()[i];
  }
}

// ---- crash matrix ---------------------------------------------------------

// Forks a child that arms one deterministic crash point and runs the
// durable ingest; the parent recovers whatever hit the disk. Covers every
// known point × several hit counts across 20 seeds (CI re-runs the same
// binary, so the matrix is ≥16 seeds there too).
TEST(RecoveryTest, CrashMatrixRecoversDurablePrefixBitIdentically) {
  std::vector<CrossingEvent> stream = RandomStream(71, kNumEdges, kNumEvents);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TempDir dir;
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: deterministic crash, no gtest machinery, no atexit.
      faults::CrashPointRegistry::Global().ArmFromSeed(seed);
      DurableIngestRun(dir.path, stream, /*snapshot_every=*/3);
      ::_exit(0);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "seed " << seed;
    int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 ||
                code == faults::CrashPointRegistry::kCrashExitCode)
        << "seed " << seed << " exited " << code;
    ExpectRecoversDurablePrefix(dir.path, stream,
                                "seed " + std::to_string(seed) +
                                    (code == 0 ? " (ran to completion)"
                                               : " (crashed)"));
  }
}

// Raw SIGKILL — no crash point, no flush, the process just vanishes at an
// arbitrary stream position. The durable prefix must still recover.
TEST(RecoveryTest, SigkillMidIngestRecoversDurablePrefix) {
  std::vector<CrossingEvent> stream = RandomStream(72, kNumEdges, kNumEvents);
  for (size_t kill_after : {size_t{37}, size_t{250}, size_t{601},
                            size_t{1150}}) {
    TempDir dir;
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      IngestPipelineOptions options;
      options.durability.wal_dir = dir.path;
      options.durability.snapshot_every_epochs = 2;
      IngestPipeline pipeline(kNumEdges, options);
      for (size_t i = 0; i < stream.size(); ++i) {
        pipeline.Push(stream[i]);
        if ((i + 1) % kEpochEvery == 0) pipeline.CloseEpochAndWait();
        if (i + 1 == kill_after) ::kill(::getpid(), SIGKILL);
      }
      ::_exit(0);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL);
    ExpectRecoversDurablePrefix(dir.path, stream,
                                "kill after " + std::to_string(kill_after));
  }
}

// ---- recovery semantics ---------------------------------------------------

TEST(RecoveryTest, UninterruptedRunRecoversIdenticallyWithGeneration) {
  std::vector<CrossingEvent> stream = RandomStream(73, kNumEdges, 800);
  TempDir dir;
  uint64_t final_generation = 0;
  {
    IngestPipelineOptions options;
    options.durability.wal_dir = dir.path;
    options.durability.snapshot_every_epochs = 3;
    IngestPipeline pipeline(kNumEdges, options);
    for (size_t i = 0; i < stream.size(); ++i) {
      pipeline.Push(stream[i]);
      if ((i + 1) % kEpochEvery == 0) pipeline.CloseEpochAndWait();
    }
    pipeline.CloseEpochAndWait();
    final_generation = pipeline.handle().Generation();
  }

  RecoveryOptions options;
  options.wal_dir = dir.path;
  options.num_edges = kNumEdges;
  RecoveryManager manager(options);
  util::StatusOr<RecoveredState> state = manager.Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->durable_events, stream.size());
  EXPECT_EQ(state->generation, final_generation);
  EXPECT_TRUE(state->used_snapshot);  // snapshot_every=3 over 8 epochs.
  EXPECT_LT(state->replayed_events, stream.size())
      << "snapshot did not shorten the tail replay";
  TrackingForm reference(kNumEdges);
  for (const CrossingEvent& e : stream) {
    reference.RecordTraversal(e.edge, e.forward, e.time);
  }
  ExpectBitIdentical(*state->store, reference);
}

TEST(RecoveryTest, CorruptSnapshotFallsBackToFullReplay) {
  std::vector<CrossingEvent> stream = RandomStream(74, kNumEdges, 500);
  TempDir dir;
  DurableIngestRun(dir.path, stream, /*snapshot_every=*/2);

  // Flip a byte in the middle of every snapshot file.
  size_t damaged = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    std::FILE* f = std::fopen(entry.path().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    long mid = static_cast<long>(std::filesystem::file_size(entry.path()) / 2);
    std::fseek(f, mid, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, mid, SEEK_SET);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);

  RecoveryOptions options;
  options.wal_dir = dir.path;
  options.num_edges = kNumEdges;
  util::StatusOr<RecoveredState> state = RecoveryManager(options).Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_FALSE(state->used_snapshot);
  EXPECT_EQ(state->replayed_events, stream.size());  // Full-log replay.
  TrackingForm reference(kNumEdges);
  for (const CrossingEvent& e : stream) {
    reference.RecordTraversal(e.edge, e.forward, e.time);
  }
  ExpectBitIdentical(*state->store, reference);
}

// A newest snapshot whose header claims 0xFFFFFFF0 events is rejected
// with a Status before anything is sized from the claim, so recovery falls
// back to the next snapshot: the same state as with that file absent.
TEST(RecoveryTest, HugeClaimedSnapshotFallsBackToTheOlderOne) {
  std::vector<CrossingEvent> stream = RandomStream(76, kNumEdges, 500);
  TempDir dir;
  DurableIngestRun(dir.path, stream, /*snapshot_every=*/2);
  std::vector<std::string> snapshots;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0) snapshots.push_back(entry.path());
  }
  ASSERT_GE(snapshots.size(), 2u);
  std::sort(snapshots.begin(), snapshots.end());
  const std::string newest = snapshots.back();
  const std::string aside = dir.path + "/aside.bin";

  RecoveryOptions options;
  options.wal_dir = dir.path;
  options.num_edges = kNumEdges;
  // Without the newest snapshot.
  ASSERT_EQ(std::rename(newest.c_str(), aside.c_str()), 0);
  util::StatusOr<RecoveredState> without = RecoveryManager(options).Recover();
  ASSERT_EQ(std::rename(aside.c_str(), newest.c_str()), 0);
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  ASSERT_TRUE(without->used_snapshot);

  // Header: magic, generation, covered epoch, covered events, slot count,
  // event count (byte 40).
  std::FILE* f = std::fopen(newest.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const uint64_t claim = 0xFFFFFFF0ull;
  ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&claim, sizeof(claim), 1, f), 1u);
  std::fclose(f);
  util::StatusOr<RecoveredState> with = RecoveryManager(options).Recover();
  ASSERT_TRUE(with.ok()) << with.status().ToString();

  EXPECT_TRUE(with->used_snapshot);
  EXPECT_EQ(with->snapshot_events, without->snapshot_events);
  EXPECT_EQ(with->replayed_events, without->replayed_events);
  EXPECT_EQ(with->durable_events, without->durable_events);
  EXPECT_EQ(with->durable_epoch, without->durable_epoch);
  EXPECT_EQ(with->generation, without->generation);
  EXPECT_EQ(with->store->RawOffsets(), without->store->RawOffsets());
  EXPECT_EQ(with->store->RawTimes(), without->store->RawTimes());
  TrackingForm reference(kNumEdges);
  for (const CrossingEvent& e : stream) {
    reference.RecordTraversal(e.edge, e.forward, e.time);
  }
  ExpectBitIdentical(*with->store, reference);
}

TEST(RecoveryTest, EmptyOrMissingLogRecoversEmptyGenerationOne) {
  RecoveryOptions options;
  options.wal_dir = "/tmp/innet_recovery_test_definitely_missing_dir";
  options.num_edges = kNumEdges;
  util::StatusOr<RecoveredState> state = RecoveryManager(options).Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->generation, 1u);
  EXPECT_EQ(state->durable_events, 0u);
  EXPECT_EQ(state->store->TotalEvents(), 0u);
}

// Crash → Resume() → finish the stream → the final store and a second
// recovery both match the uninterrupted run. The full durability loop.
TEST(RecoveryTest, ResumeContinuesStreamAndStaysDurable) {
  std::vector<CrossingEvent> stream = RandomStream(75, kNumEdges, kNumEvents);
  TempDir dir;
  // Phase 1: crash partway through (deterministic crash point).
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    faults::CrashPointRegistry::Global().Arm("wal:pre-fsync", 4);
    DurableIngestRun(dir.path, stream, /*snapshot_every=*/2);
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), faults::CrashPointRegistry::kCrashExitCode);

  // Phase 2: resume, figure out where the durable prefix ended, and feed
  // the remainder of the stream.
  RecoveryOptions recovery_options;
  recovery_options.wal_dir = dir.path;
  recovery_options.num_edges = kNumEdges;
  RecoveredState recovered;
  IngestPipelineOptions pipeline_options;
  pipeline_options.durability.snapshot_every_epochs = 2;
  util::StatusOr<std::unique_ptr<IngestPipeline>> pipeline =
      RecoveryManager(recovery_options)
          .Resume(pipeline_options, &recovered);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_LT(recovered.durable_events, stream.size());
  EXPECT_EQ((*pipeline)->handle().Generation(), recovered.generation);
  for (size_t i = recovered.durable_events; i < stream.size(); ++i) {
    (*pipeline)->Push(stream[i]);
    if ((i + 1) % kEpochEvery == 0) (*pipeline)->CloseEpochAndWait();
  }
  (*pipeline)->CloseEpochAndWait();

  TrackingForm reference(kNumEdges);
  for (const CrossingEvent& e : stream) {
    reference.RecordTraversal(e.edge, e.forward, e.time);
  }
  {
    forms::FrozenStoreHandle::Snapshot snap = (*pipeline)->handle().Acquire();
    ExpectBitIdentical(*snap.store, reference);
  }
  pipeline->reset();  // Clean shutdown: final epoch committed.

  // Phase 3: recover once more — the resumed run's WAL is itself durable.
  util::StatusOr<RecoveredState> again =
      RecoveryManager(recovery_options).Recover();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->durable_events, stream.size());
  ExpectBitIdentical(*again->store, reference);
}

// ---- deployment-scale golden test ----------------------------------------

// Query-level identity: SampledQueryProcessor answers (point estimates AND
// AnswerSeries at several resolutions) over the recovered store must equal
// an uninterrupted run's answers exactly.
TEST(RecoveryTest, DeploymentAnswersFromRecoveredStoreMatchExactly) {
  core::FrameworkOptions fo;
  fo.road.num_junctions = 200;
  fo.traffic.num_trajectories = 250;
  fo.seed = 23;
  core::Framework framework(fo);
  sampling::KdTreeSampler sampler;
  util::Rng rng = framework.ForkRng();
  core::Deployment deployment = framework.DeployWithSampler(
      sampler, framework.network().NumSensors() / 5, core::DeploymentOptions{},
      rng);
  core::WorkloadOptions wo;
  wo.area_fraction = 0.05;
  wo.horizon = framework.Horizon();
  std::vector<core::RangeQuery> queries =
      core::GenerateWorkload(framework.network(), wo, 8, rng);

  std::vector<CrossingEvent> events;
  for (const CrossingEvent& e : framework.network().events()) {
    if (deployment.graph().IsMonitored(e.edge)) events.push_back(e);
  }
  ASSERT_FALSE(events.empty());
  size_t edge_space = framework.network().TotalEdgeSpace();

  TempDir dir;
  uint64_t live_generation = 0;
  {
    IngestPipelineOptions options;
    options.durability.wal_dir = dir.path;
    options.durability.snapshot_every_epochs = 3;
    IngestPipeline pipeline(edge_space, options);
    size_t chunk = events.size() / 9 + 1;
    for (size_t begin = 0; begin < events.size(); begin += chunk) {
      size_t end = std::min(begin + chunk, events.size());
      for (size_t i = begin; i < end; ++i) pipeline.Push(events[i]);
      pipeline.CloseEpochAndWait();
    }
    live_generation = pipeline.handle().Generation();
  }

  RecoveryOptions options;
  options.wal_dir = dir.path;
  options.num_edges = edge_space;
  util::StatusOr<RecoveredState> state = RecoveryManager(options).Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->generation, live_generation);
  EXPECT_EQ(state->durable_events, events.size());

  const TrackingForm* tracking = deployment.tracking_store();
  ASSERT_NE(tracking, nullptr);
  FrozenTrackingForm scratch = tracking->Freeze();
  core::SampledQueryProcessor reference(deployment.graph(), scratch);
  core::SampledQueryProcessor recovered_proc(deployment.graph(),
                                             *state->store);
  for (const core::RangeQuery& q : queries) {
    for (core::BoundMode bound :
         {core::BoundMode::kLower, core::BoundMode::kUpper}) {
      for (core::CountKind kind :
           {core::CountKind::kStatic, core::CountKind::kTransient}) {
        core::QueryAnswer a = reference.Answer(q, kind, bound);
        core::QueryAnswer b = recovered_proc.Answer(q, kind, bound);
        EXPECT_EQ(a.estimate, b.estimate);
        EXPECT_EQ(a.missed, b.missed);
      }
      for (size_t steps : {size_t{0}, size_t{1}, size_t{500}}) {
        std::vector<double> a = reference.AnswerSeries(q, bound, steps);
        std::vector<double> b = recovered_proc.AnswerSeries(q, bound, steps);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i], b[i]) << "steps=" << steps << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace innet::runtime
