// Golden identity suite: FrozenTrackingForm must be bit-for-bit equal to
// the TrackingForm it was built from — per-slot counts, region evaluations,
// batch kernels, and end-to-end processor answers alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/framework.h"
#include "core/workload.h"
#include "forms/frozen_tracking_form.h"
#include "forms/region_count.h"
#include "forms/tracking_form.h"
#include "sampling/samplers.h"
#include "util/rng.h"
#include "util/simd.h"

namespace innet::forms {
namespace {

using graph::EdgeId;

// Random store with a mix of dense, sparse, duplicate-laden, and EMPTY
// slots; timestamps drawn from [0, 1000) with repeats.
TrackingForm RandomForm(uint64_t seed, size_t num_edges, size_t max_events) {
  util::Rng rng(seed);
  TrackingForm form(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) {
    for (int dir = 0; dir < 2; ++dir) {
      if (rng.Bernoulli(0.2)) continue;  // Leave ~20% of slots empty.
      size_t n = rng.UniformIndex(max_events + 1);
      std::vector<double> ts(n);
      for (double& t : ts) {
        t = rng.Uniform(0.0, 1000.0);
        if (rng.Bernoulli(0.1)) t = std::floor(t);  // Encourage duplicates.
      }
      std::sort(ts.begin(), ts.end());
      for (double t : ts) form.RecordTraversal(e, dir == 0, t);
    }
  }
  return form;
}

TEST(FrozenTrackingFormTest, CountUpToMatchesEverywhere) {
  TrackingForm tracking = RandomForm(7, 40, 200);
  FrozenTrackingForm frozen = tracking.Freeze();
  ASSERT_EQ(frozen.num_edges(), tracking.num_edges());
  ASSERT_EQ(frozen.TotalEvents(), tracking.TotalEvents());

  util::Rng rng(8);
  for (EdgeId e = 0; e < tracking.num_edges(); ++e) {
    for (int dir = 0; dir < 2; ++dir) {
      bool forward = dir == 0;
      ASSERT_EQ(frozen.EventCount(e, forward),
                tracking.EventCount(e, forward));
      const std::vector<double>& seq = tracking.Sequence(e, forward);
      // Out-of-range probes on both sides.
      EXPECT_EQ(frozen.CountUpTo(e, forward, -1e9),
                tracking.CountUpTo(e, forward, -1e9));
      EXPECT_EQ(frozen.CountUpTo(e, forward, 1e9),
                tracking.CountUpTo(e, forward, 1e9));
      // Every stored timestamp, plus a nudge on each side — the adversarial
      // probes for the bucket index (exact boundaries, duplicates).
      for (double t : seq) {
        for (double probe : {t, std::nextafter(t, -1e30),
                             std::nextafter(t, 1e30)}) {
          ASSERT_EQ(frozen.CountUpTo(e, forward, probe),
                    tracking.CountUpTo(e, forward, probe))
              << "edge " << e << " fwd " << forward << " t " << probe;
        }
      }
      // Random probes.
      for (int i = 0; i < 50; ++i) {
        double t = rng.Uniform(-50.0, 1050.0);
        ASSERT_EQ(frozen.CountUpTo(e, forward, t),
                  tracking.CountUpTo(e, forward, t));
      }
    }
  }
}

TEST(FrozenTrackingFormTest, CountInRangeMatches) {
  TrackingForm tracking = RandomForm(11, 25, 120);
  FrozenTrackingForm frozen = tracking.Freeze();
  util::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    EdgeId e = static_cast<EdgeId>(rng.UniformIndex(tracking.num_edges()));
    bool forward = rng.Bernoulli(0.5);
    double a = rng.Uniform(-50.0, 1050.0);
    double b = rng.Uniform(-50.0, 1050.0);
    if (a > b) std::swap(a, b);
    EXPECT_EQ(frozen.CountInRange(e, forward, a, b),
              tracking.CountInRange(e, forward, a, b));
  }
}

TEST(FrozenTrackingFormTest, ProvenanceAndStorageMirrorSource) {
  TrackingForm tracking = RandomForm(13, 10, 60);
  FrozenTrackingForm frozen = tracking.Freeze();
  StoreProvenance a = tracking.Provenance();
  StoreProvenance b = frozen.Provenance();
  EXPECT_STREQ(a.kind, b.kind);
  EXPECT_EQ(a.modeled_events, b.modeled_events);
  EXPECT_EQ(a.raw_events, b.raw_events);
  EXPECT_EQ(frozen.StorageBytes(), tracking.StorageBytes());
  for (EdgeId e = 0; e < tracking.num_edges(); ++e) {
    EXPECT_EQ(frozen.StorageBytesForEdge(e), tracking.StorageBytesForEdge(e));
  }
  EXPECT_GT(frozen.IndexBytes(), 0u);
}

// Random boundary over the store's edges (some repeated, both senses).
std::vector<BoundaryEdge> RandomBoundary(util::Rng& rng, size_t num_edges,
                                         size_t size) {
  std::vector<BoundaryEdge> boundary;
  boundary.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    boundary.push_back({static_cast<EdgeId>(rng.UniformIndex(num_edges)),
                        rng.Bernoulli(0.5)});
  }
  return boundary;
}

TEST(FrozenTrackingFormTest, FusedRegionEvaluationsMatchVirtualPath) {
  TrackingForm tracking = RandomForm(17, 30, 150);
  FrozenTrackingForm frozen = tracking.Freeze();
  util::Rng rng(18);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<BoundaryEdge> boundary =
        RandomBoundary(rng, tracking.num_edges(), 1 + rng.UniformIndex(20));
    double t = rng.Uniform(-10.0, 1010.0);
    double t0 = rng.Uniform(-10.0, 1010.0);
    double t1 = rng.Uniform(-10.0, 1010.0);
    if (t0 > t1) std::swap(t0, t1);
    // Same arithmetic, same order: bit-identical, so EXPECT_EQ not NEAR.
    EXPECT_EQ(EvaluateStaticCount(frozen, boundary, t),
              EvaluateStaticCount(
                  static_cast<const EdgeCountStore&>(tracking), boundary, t));
    EXPECT_EQ(EvaluateTransientCount(frozen, boundary, t0, t1),
              EvaluateTransientCount(
                  static_cast<const EdgeCountStore&>(tracking), boundary, t0,
                  t1));
    // The fused overload on the frozen store itself must agree with its
    // virtual dispatch too.
    EXPECT_EQ(EvaluateStaticCount(frozen, boundary, t),
              EvaluateStaticCount(static_cast<const EdgeCountStore&>(frozen),
                                  boundary, t));
  }
}

TEST(FrozenTrackingFormTest, BatchKernelsMatchScalarLoops) {
  TrackingForm tracking = RandomForm(19, 30, 150);
  FrozenTrackingForm frozen = tracking.Freeze();
  util::Rng rng(20);
  for (size_t count : {size_t{1}, size_t{2}, size_t{7}, size_t{256}}) {
    std::vector<BoundaryEdge> boundary =
        RandomBoundary(rng, tracking.num_edges(), 12);
    std::vector<double> times(count);
    for (double& t : times) t = rng.Uniform(-10.0, 1010.0);
    std::sort(times.begin(), times.end());

    std::vector<double> batch(count, 0.0);
    AddStaticCountBatch(frozen, boundary, times.data(), count, batch.data());
    for (size_t k = 0; k < count; ++k) {
      EXPECT_EQ(batch[k], EvaluateStaticCount(
                              static_cast<const EdgeCountStore&>(tracking),
                              boundary, times[k]))
          << "static k=" << k;
    }

    double t0 = times.front() - rng.Uniform(0.0, 100.0);
    EvaluateTransientCountBatch(frozen, boundary, t0, times.data(), count,
                                batch.data());
    for (size_t k = 0; k < count; ++k) {
      EXPECT_EQ(batch[k], EvaluateTransientCount(
                              static_cast<const EdgeCountStore&>(tracking),
                              boundary, t0, times[k]))
          << "transient k=" << k;
    }
  }
}

// The golden identity must hold at EVERY dispatch level, not just the
// machine's default: rerun the fused/batch identity checks with the kernel
// dispatch forced to scalar and to the detected best in turn.
TEST(FrozenTrackingFormTest, IdentityHoldsAtEveryDispatchLevel) {
  TrackingForm tracking = RandomForm(23, 30, 150);
  FrozenTrackingForm frozen = tracking.Freeze();
  const auto& virtual_store = static_cast<const EdgeCountStore&>(tracking);
  for (util::simd::SimdLevel level :
       {util::simd::SimdLevel::kScalar, util::simd::DetectedSimdLevel()}) {
    util::simd::ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    util::Rng rng(24);  // Same seed per level: identical trial sequences.
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<BoundaryEdge> boundary =
          RandomBoundary(rng, tracking.num_edges(), 1 + rng.UniformIndex(20));
      double t = rng.Uniform(-10.0, 1010.0);
      double t0 = rng.Uniform(-10.0, 1010.0);
      double t1 = rng.Uniform(-10.0, 1010.0);
      if (t0 > t1) std::swap(t0, t1);
      ASSERT_EQ(EvaluateStaticCount(frozen, boundary, t),
                EvaluateStaticCount(virtual_store, boundary, t))
          << "level=" << util::simd::SimdLevelName(level);
      ASSERT_EQ(EvaluateTransientCount(frozen, boundary, t0, t1),
                EvaluateTransientCount(virtual_store, boundary, t0, t1))
          << "level=" << util::simd::SimdLevelName(level);

      std::vector<double> times = {t0, (t0 + t1) / 2, t1};
      std::vector<double> batch(times.size(), 0.0);
      AddStaticCountBatch(frozen, boundary, times.data(), times.size(),
                          batch.data());
      for (size_t k = 0; k < times.size(); ++k) {
        ASSERT_EQ(batch[k], EvaluateStaticCount(virtual_store, boundary,
                                                times[k]))
            << "level=" << util::simd::SimdLevelName(level) << " k=" << k;
      }
      EvaluateTransientCountBatch(frozen, boundary, t0 - 5.0, times.data(),
                                  times.size(), batch.data());
      for (size_t k = 0; k < times.size(); ++k) {
        ASSERT_EQ(batch[k], EvaluateTransientCount(virtual_store, boundary,
                                                   t0 - 5.0, times[k]))
            << "level=" << util::simd::SimdLevelName(level) << " k=" << k;
      }
    }
  }
}

TEST(FrozenTrackingFormTest, EmptyStoreAndEmptyBoundary) {
  TrackingForm tracking(5);
  FrozenTrackingForm frozen = tracking.Freeze();
  EXPECT_EQ(frozen.TotalEvents(), 0u);
  EXPECT_EQ(frozen.CountUpTo(3, true, 10.0), 0.0);
  std::vector<BoundaryEdge> empty;
  EXPECT_EQ(EvaluateStaticCount(frozen, empty, 1.0), 0.0);
  std::vector<BoundaryEdge> boundary = {{0, true}, {4, false}};
  EXPECT_EQ(EvaluateStaticCount(frozen, boundary, 1.0), 0.0);
  double out[3] = {0, 0, 0};
  double times[3] = {0.0, 1.0, 2.0};
  AddStaticCountBatch(frozen, boundary, times, 3, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[2], 0.0);
}

// End-to-end: a processor over the frozen store answers every query —
// static, transient, and series — bit-identically to the tracking-form
// processor it shadows.
class FrozenDeploymentFixture : public ::testing::Test {
 protected:
  FrozenDeploymentFixture() : framework_(Options()) {}

  void SetUp() override {
    sampling::KdTreeSampler sampler;
    util::Rng rng = framework_.ForkRng();
    deployment_ = std::make_unique<core::Deployment>(
        framework_.DeployWithSampler(
            sampler, framework_.network().NumSensors() / 5,
            core::DeploymentOptions{}, rng));
    const TrackingForm* tracking = deployment_->tracking_store();
    ASSERT_NE(tracking, nullptr);
    frozen_ = std::make_unique<FrozenTrackingForm>(tracking->Freeze());

    core::WorkloadOptions wo;
    wo.area_fraction = 0.05;
    wo.horizon = framework_.Horizon();
    queries_ = core::GenerateWorkload(framework_.network(), wo, 20, rng);
  }

  static core::FrameworkOptions Options() {
    core::FrameworkOptions options;
    options.road.num_junctions = 250;
    options.traffic.num_trajectories = 300;
    options.seed = 21;
    return options;
  }

  core::Framework framework_;
  std::unique_ptr<core::Deployment> deployment_;
  std::unique_ptr<FrozenTrackingForm> frozen_;
  std::vector<core::RangeQuery> queries_;
};

TEST_F(FrozenDeploymentFixture, ProcessorAnswersAreBitIdentical) {
  core::SampledQueryProcessor reference = deployment_->processor();
  core::SampledQueryProcessor fast(deployment_->graph(), *frozen_);
  ASSERT_FALSE(queries_.empty());
  for (const core::RangeQuery& q : queries_) {
    for (core::BoundMode bound :
         {core::BoundMode::kLower, core::BoundMode::kUpper}) {
      for (core::CountKind kind :
           {core::CountKind::kStatic, core::CountKind::kTransient}) {
        core::QueryAnswer a = reference.Answer(q, kind, bound);
        core::QueryAnswer b = fast.Answer(q, kind, bound);
        EXPECT_EQ(a.estimate, b.estimate);
        EXPECT_EQ(a.missed, b.missed);
        EXPECT_EQ(a.nodes_accessed, b.nodes_accessed);
        EXPECT_EQ(a.edges_accessed, b.edges_accessed);
      }
    }
  }
}

TEST_F(FrozenDeploymentFixture, AnswerSeriesIsBitIdenticalAtAllStepCounts) {
  core::SampledQueryProcessor reference = deployment_->processor();
  core::SampledQueryProcessor fast(deployment_->graph(), *frozen_);
  for (const core::RangeQuery& q : queries_) {
    for (size_t steps : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
      std::vector<double> a =
          reference.AnswerSeries(q, core::BoundMode::kLower, steps);
      std::vector<double> b =
          fast.AnswerSeries(q, core::BoundMode::kLower, steps);
      ASSERT_EQ(a.size(), b.size()) << "steps=" << steps;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "steps=" << steps << " i=" << i;
      }
    }
  }
}

TEST_F(FrozenDeploymentFixture, ExplainRecordsAreIdentical) {
  core::SampledQueryProcessor reference = deployment_->processor();
  core::SampledQueryProcessor fast(deployment_->graph(), *frozen_);
  for (const core::RangeQuery& q : queries_) {
    obs::ExplainRecord a;
    obs::ExplainRecord b;
    reference.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower, &a);
    fast.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower, &b);
    EXPECT_EQ(a.faces, b.faces);
    EXPECT_EQ(a.answer, b.answer);
    EXPECT_EQ(a.resolved_cells, b.resolved_cells);
    EXPECT_EQ(a.deadspace_fraction, b.deadspace_fraction);
    EXPECT_STREQ(a.store.c_str(), b.store.c_str());
    EXPECT_EQ(a.store_raw_events, b.store_raw_events);
    EXPECT_EQ(a.boundary_edges, b.boundary_edges);
    EXPECT_EQ(a.boundary_sensors, b.boundary_sensors);
  }
}

}  // namespace
}  // namespace innet::forms
