// Run-store oracles: a forms::FrozenRuns — any cut of a stream into sealed
// runs, after any order of pairwise merges — must count exactly like a
// from-scratch freeze of the same stream: totals, per-slot counts, prefix
// counts at every stored timestamp and one ulp either side, the slot
// sequences snapshots write, and every fused kernel core::StoreView sums
// over the runs (static, transient, activity, series) at both SIMD
// dispatch levels — including at instants around each run's first
// timestamp, where the view starts or stops skipping the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "core/answer_core.h"
#include "forms/frozen_runs.h"
#include "forms/frozen_tracking_form.h"
#include "forms/region_count.h"
#include "forms/tracking_form.h"
#include "mobility/trajectory.h"
#include "runtime/ingest_pipeline.h"
#include "util/rng.h"
#include "util/simd.h"

namespace innet::forms {
namespace {

using graph::EdgeId;
using mobility::CrossingEvent;
using RunPtr = FrozenRuns::Run;

constexpr size_t kNumEdges = 12;

// A stream in arrival order: mostly time-ordered, with duplicate
// timestamps, ~20% silent slots, and ~10% late events that arrive up to a
// quarter of the horizon behind, so runs cut from it overlap in time.
std::vector<CrossingEvent> ArrivalStream(uint64_t seed, size_t num_events) {
  util::Rng rng(seed);
  std::vector<bool> silent(2 * kNumEdges);
  for (size_t s = 0; s < silent.size(); ++s) silent[s] = rng.Bernoulli(0.2);
  std::vector<CrossingEvent> events;
  while (events.size() < num_events) {
    EdgeId e = static_cast<EdgeId>(rng.UniformIndex(kNumEdges));
    bool forward = rng.Bernoulli(0.5);
    if (silent[FrozenTrackingForm::Slot(e, forward)]) continue;
    double t = rng.Uniform(0.0, 1000.0);
    if (rng.Bernoulli(0.15)) t = std::floor(t / 10.0) * 10.0;  // Duplicates.
    events.push_back({e, forward, t});
  }
  std::sort(events.begin(), events.end(),
            [](const CrossingEvent& a, const CrossingEvent& b) {
              return a.time < b.time;
            });
  for (CrossingEvent& e : events) {
    if (rng.Bernoulli(0.1)) {
      e.time = std::max(0.0, e.time - rng.Uniform(0.0, 250.0));
    }
  }
  return events;
}

TrackingForm Reference(std::vector<CrossingEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const CrossingEvent& a, const CrossingEvent& b) {
                     return a.time < b.time;
                   });
  TrackingForm form(kNumEdges);
  for (const CrossingEvent& e : events) {
    form.RecordTraversal(e.edge, e.forward, e.time);
  }
  return form;
}

// Cuts `events` (arrival order) into `k` non-empty consecutive pieces and
// seals each as a run, as the ingest freezer seals epochs.
std::vector<RunPtr> CutIntoRuns(const std::vector<CrossingEvent>& events,
                             size_t k, util::Rng& rng) {
  std::vector<size_t> cuts = {0, events.size()};
  while (cuts.size() < k + 1) {
    size_t at = 1 + rng.UniformIndex(events.size() - 1);
    if (std::find(cuts.begin(), cuts.end(), at) == cuts.end()) {
      cuts.push_back(at);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<RunPtr> runs;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    std::vector<CrossingEvent> piece(events.begin() + cuts[i],
                                     events.begin() + cuts[i + 1]);
    runs.push_back(std::make_shared<const FrozenTrackingForm>(
        runtime::SealRun(kNumEdges, {&piece, 1})));
  }
  return runs;
}

std::vector<RunPtr> MergeAt(const std::vector<RunPtr>& runs, size_t i) {
  std::vector<RunPtr> next = runs;
  next[i] = std::make_shared<const FrozenTrackingForm>(*runs[i], *runs[i + 1]);
  next.erase(next.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  return next;
}

// Visits `runs` and every state reachable from it by merging adjacent
// pairs, along every merge order.
void ForEveryMergeOrder(
    const std::vector<RunPtr>& runs,
    const std::function<void(const std::vector<RunPtr>&)>& visit) {
  visit(runs);
  for (size_t i = 0; i + 1 < runs.size(); ++i) {
    ForEveryMergeOrder(MergeAt(runs, i), visit);
  }
}

std::vector<BoundaryEdge> RandomBoundary(util::Rng& rng, size_t edges) {
  std::vector<BoundaryEdge> boundary;
  for (size_t i = 0; i < edges; ++i) {
    boundary.push_back({static_cast<EdgeId>(rng.UniformIndex(kNumEdges)),
                        rng.Bernoulli(0.5)});
  }
  std::sort(boundary.begin(), boundary.end(),
            [](const BoundaryEdge& a, const BoundaryEdge& b) {
              return a.edge < b.edge;
            });
  return boundary;
}

// Store-level identity: totals, per-slot counts and sequences, and prefix
// counts at every stored timestamp and one ulp either side.
void ExpectStoreMatches(const FrozenRuns& runs, const TrackingForm& reference) {
  ASSERT_EQ(runs.num_edges(), reference.num_edges());
  ASSERT_EQ(runs.TotalEvents(), reference.TotalEvents());
  std::vector<double> slot;
  for (EdgeId e = 0; e < kNumEdges; ++e) {
    for (bool forward : {true, false}) {
      ASSERT_EQ(runs.EventCount(e, forward), reference.EventCount(e, forward))
          << "edge " << e << " fwd " << forward;
      slot.clear();
      runs.AppendSlot(FrozenTrackingForm::Slot(e, forward), &slot);
      ASSERT_EQ(slot, reference.Sequence(e, forward));
      for (double t : reference.Sequence(e, forward)) {
        for (double probe :
             {t, std::nextafter(t, -1e30), std::nextafter(t, 1e30)}) {
          ASSERT_EQ(runs.CountUpTo(e, forward, probe),
                    reference.CountUpTo(e, forward, probe))
              << "edge " << e << " fwd " << forward << " t " << probe;
        }
      }
    }
  }
}

// Kernel-level identity: every kernel of a view over the runs equals the
// virtual kernel over the reference at `instants`.
void ExpectKernelsMatch(const FrozenRuns& runs, const TrackingForm& reference,
                        const std::vector<double>& instants, util::Rng& rng) {
  const auto& truth = static_cast<const EdgeCountStore&>(reference);
  core::StoreView view(runs);
  ASSERT_TRUE(view.fused());
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<BoundaryEdge> boundary =
        RandomBoundary(rng, 1 + rng.UniformIndex(10));
    for (double t : instants) {
      ASSERT_EQ(view.StaticCount(boundary, t),
                EvaluateStaticCount(truth, boundary, t))
          << "t " << t;
      ASSERT_EQ(view.ActivityUpTo(boundary, t),
                EvaluateBoundaryActivity(truth, boundary, t))
          << "t " << t;
      double t0 = t - rng.Uniform(0.0, 300.0);
      ASSERT_EQ(view.TransientCount(boundary, t0, t),
                EvaluateTransientCount(truth, boundary, t0, t))
          << "t0 " << t0 << " t " << t;
      ASSERT_EQ(view.ActivityInRange(boundary, t0, t),
                EvaluateBoundaryActivity(truth, boundary, t0, t))
          << "t0 " << t0 << " t " << t;
    }
    std::vector<double> series_times = instants;
    std::sort(series_times.begin(), series_times.end());
    std::vector<double> series(series_times.size(), -1.0);
    view.StaticSeries(boundary, series_times.data(), series_times.size(),
                      series.data());
    for (size_t k = 0; k < series_times.size(); ++k) {
      ASSERT_EQ(series[k], EvaluateStaticCount(truth, boundary,
                                               series_times[k]))
          << "series k=" << k;
    }
  }
}

// Instants just before, at and after every run's first timestamp, plus a
// spread over the horizon and both out-of-range sides.
std::vector<double> ProbeInstants(const std::vector<RunPtr>& runs,
                                  util::Rng& rng) {
  std::vector<double> instants = {-1.0, 1e9};
  for (const RunPtr& run : runs) {
    double first = run->FirstTime();
    instants.push_back(std::nextafter(first, -1e30));
    instants.push_back(first);
    instants.push_back(std::nextafter(first, 1e30));
  }
  for (int i = 0; i < 4; ++i) instants.push_back(rng.Uniform(0.0, 1000.0));
  return instants;
}

void ExpectStateMatches(const std::vector<RunPtr>& state,
                        const TrackingForm& reference, util::Rng& rng) {
  FrozenRuns runs(kNumEdges, state);
  ExpectStoreMatches(runs, reference);
  std::vector<double> instants = ProbeInstants(state, rng);
  for (util::simd::SimdLevel level :
       {util::simd::SimdLevel::kScalar, util::simd::DetectedSimdLevel()}) {
    util::simd::ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    SCOPED_TRACE(util::simd::SimdLevelName(level));
    ExpectKernelsMatch(runs, reference, instants, rng);
  }
  if (state.size() == 1) {
    // A fully merged store IS the scratch freeze, index included.
    FrozenTrackingForm scratch = reference.Freeze();
    EXPECT_EQ(state[0]->RawTimes(), scratch.RawTimes());
    EXPECT_EQ(state[0]->RawOffsets(), scratch.RawOffsets());
    EXPECT_EQ(state[0]->IndexBytes(), scratch.IndexBytes());
    EXPECT_EQ(state[0]->FirstTime(), scratch.FirstTime());
  }
}

TEST(FrozenRunsTest, EveryMergeOrderOfSmallCutsMatchesScratchFreeze) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<CrossingEvent> stream = ArrivalStream(seed, 400);
    TrackingForm reference = Reference(stream);
    util::Rng rng(100 + seed);
    for (size_t k = 1; k <= 5; ++k) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " runs " +
                   std::to_string(k));
      std::vector<RunPtr> runs = CutIntoRuns(stream, k, rng);
      ForEveryMergeOrder(runs, [&](const std::vector<RunPtr>& state) {
        ExpectStateMatches(state, reference, rng);
      });
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FrozenRunsTest, RandomMergeOrdersOfLargeCutsMatchScratchFreeze) {
  std::vector<CrossingEvent> stream = ArrivalStream(9, 900);
  TrackingForm reference = Reference(stream);
  util::Rng rng(10);
  for (size_t k = 6; k <= 12; ++k) {
    for (int order = 0; order < 3; ++order) {
      SCOPED_TRACE("runs " + std::to_string(k) + " order " +
                   std::to_string(order));
      std::vector<RunPtr> state = CutIntoRuns(stream, k, rng);
      for (;;) {
        ExpectStateMatches(state, reference, rng);
        if (HasFatalFailure() || state.size() == 1) break;
        state = MergeAt(state, rng.UniformIndex(state.size() - 1));
      }
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FrozenRunsTest, EmptyRunListCountsNothing) {
  FrozenRuns runs(kNumEdges, {});
  TrackingForm empty(kNumEdges);
  ExpectStoreMatches(runs, empty);
  core::StoreView view(runs);
  EXPECT_TRUE(view.fused());
  std::vector<BoundaryEdge> boundary = {{0, true}, {3, false}};
  EXPECT_EQ(view.StaticCount(boundary, 10.0), 0.0);
  EXPECT_EQ(view.StoredTimestamps(boundary), 0u);
  double times[2] = {1.0, 2.0};
  double out[2] = {-1.0, -1.0};
  view.StaticSeries(boundary, times, 2, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(FrozenRunsTest, SealRunSortsLateEventsWithinASlot) {
  std::vector<CrossingEvent> events = {
      {0, true, 5.0}, {0, true, 2.0}, {1, false, 3.0}, {0, true, 8.0}};
  FrozenTrackingForm run = runtime::SealRun(2, {&events, 1});
  const double* begin = run.SlotBegin(FrozenTrackingForm::Slot(0, true));
  EXPECT_EQ(std::vector<double>(begin, begin + 3),
            (std::vector<double>{2.0, 5.0, 8.0}));
  EXPECT_EQ(run.EventCount(1, false), 1u);
  EXPECT_EQ(run.FirstTime(), 2.0);
}

}  // namespace
}  // namespace innet::forms
