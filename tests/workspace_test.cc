// QueryWorkspace: identity of the allocation-free primitives with the
// allocating overloads, stamp correctness across reuse, and the zero
// steady-state allocation guarantee of the warm query path (pinned with
// util::AllocProbe, which this binary links by referencing it).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/framework.h"
#include "core/query_processor.h"
#include "core/query_workspace.h"
#include "core/workload.h"
#include "forms/frozen_tracking_form.h"
#include "obs/query_digest.h"
#include "obs/trace.h"
#include "runtime/batch_query_engine.h"
#include "sampling/samplers.h"
#include "util/alloc_probe.h"

namespace innet::core {
namespace {

FrameworkOptions SmallOptions(uint64_t seed) {
  FrameworkOptions options;
  options.road.num_junctions = 250;
  options.traffic.num_trajectories = 300;
  options.seed = seed;
  return options;
}

class WorkspaceFixture : public ::testing::Test {
 protected:
  WorkspaceFixture() : framework_(SmallOptions(5)) {
    sampling::KdTreeSampler sampler;
    util::Rng rng = framework_.ForkRng();
    deployment_ = std::make_unique<Deployment>(framework_.DeployWithSampler(
        sampler, framework_.network().NumSensors() / 5, DeploymentOptions{},
        rng));
    WorkloadOptions wo;
    wo.area_fraction = 0.05;
    wo.horizon = framework_.Horizon();
    queries_ = GenerateWorkload(framework_.network(), wo, 20, rng);
  }

  Framework framework_;
  std::unique_ptr<Deployment> deployment_;
  std::vector<RangeQuery> queries_;
};

TEST_F(WorkspaceFixture, WorkspaceVariantsMatchAllocatingOverloads) {
  const SampledGraph& g = deployment_->graph();
  QueryWorkspace ws;  // Fresh, private workspace (not the thread-local one).
  for (const RangeQuery& q : queries_) {
    std::vector<uint32_t> lower = g.LowerBoundFaces(q.junctions);
    g.ResolveFaces(q.junctions, BoundMode::kLower, ws);
    EXPECT_EQ(ws.faces, lower);

    std::vector<uint32_t> upper = g.UpperBoundFaces(q.junctions);
    g.ResolveFaces(q.junctions, BoundMode::kUpper, ws);
    EXPECT_EQ(ws.faces, upper);

    if (upper.empty()) continue;
    SampledGraph::RegionBoundary boundary = g.BoundaryOfFaces(upper);
    // `faces` aliasing ws.faces is part of the contract.
    g.BoundaryOfFaces(ws.faces, ws);
    ASSERT_EQ(ws.boundary_edges.size(), boundary.edges.size());
    for (size_t i = 0; i < boundary.edges.size(); ++i) {
      EXPECT_EQ(ws.boundary_edges[i].edge, boundary.edges[i].edge);
      EXPECT_EQ(ws.boundary_edges[i].inward_is_forward,
                boundary.edges[i].inward_is_forward);
    }
    EXPECT_EQ(ws.boundary_sensors, boundary.sensors);
    // Sensors are deduplicated: equal as a set to the dual endpoints of the
    // boundary edges, with no repeats.
    std::set<graph::NodeId> unique_sensors(ws.boundary_sensors.begin(),
                                           ws.boundary_sensors.end());
    EXPECT_EQ(unique_sensors.size(), ws.boundary_sensors.size());
  }
}

TEST_F(WorkspaceFixture, ReusedWorkspaceAnswersMatchFreshWorkspaces) {
  SampledQueryProcessor processor = deployment_->processor();
  QueryWorkspace reused;
  for (const RangeQuery& q : queries_) {
    QueryWorkspace fresh;
    QueryAnswer a =
        processor.Answer(q, CountKind::kStatic, BoundMode::kLower, nullptr,
                         &fresh);
    QueryAnswer b =
        processor.Answer(q, CountKind::kStatic, BoundMode::kLower, nullptr,
                         &reused);
    // Stamped scratch must behave as if zero-initialized every query.
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.missed, b.missed);
    EXPECT_EQ(a.nodes_accessed, b.nodes_accessed);
    EXPECT_EQ(a.edges_accessed, b.edges_accessed);
  }
}

// The satellite bugfix regression: a junction listed twice in the query
// must count ONCE toward a face's coverage. Before the fix the duplicate
// inflated the hit count past the face size, so the equality test silently
// rejected fully-covered faces.
TEST_F(WorkspaceFixture, LowerBoundFacesCountsDuplicateJunctionsOnce) {
  const SampledGraph& g = deployment_->graph();
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  // All junctions of one face: its lower bound must resolve to that face.
  for (uint32_t target = 0; target < g.NumFaces(); ++target) {
    std::vector<graph::NodeId> junctions;
    for (graph::NodeId n = 0; n < mobility.NumNodes(); ++n) {
      if (g.FaceOfJunction(n) == target) junctions.push_back(n);
    }
    if (junctions.empty()) continue;
    std::vector<uint32_t> clean = g.LowerBoundFaces(junctions);
    ASSERT_TRUE(std::count(clean.begin(), clean.end(), target) == 1)
        << "face " << target;
    // Duplicate every junction (and triple the first): same resolution.
    std::vector<graph::NodeId> dupes = junctions;
    dupes.insert(dupes.end(), junctions.begin(), junctions.end());
    dupes.push_back(junctions.front());
    EXPECT_EQ(g.LowerBoundFaces(dupes), clean);
    break;  // One face suffices; the loop only skips empty faces.
  }
}

TEST_F(WorkspaceFixture, UnsampledAnswersMatchWithAndWithoutWorkspace) {
  UnsampledQueryProcessor processor(framework_.network());
  QueryWorkspace ws;
  for (const RangeQuery& q : queries_) {
    QueryAnswer a = processor.Answer(q, CountKind::kStatic);
    QueryAnswer b = processor.Answer(q, CountKind::kStatic, nullptr, &ws);
    EXPECT_EQ(a.estimate, b.estimate);
    EXPECT_EQ(a.nodes_accessed, b.nodes_accessed);
    EXPECT_EQ(a.edges_accessed, b.edges_accessed);
    QueryAnswer c = processor.Answer(q, CountKind::kTransient);
    QueryAnswer d = processor.Answer(q, CountKind::kTransient, nullptr, &ws);
    EXPECT_EQ(c.estimate, d.estimate);
  }
}

TEST_F(WorkspaceFixture, SampledProcessorWarmPathDoesNotAllocate) {
  SampledQueryProcessor processor = deployment_->processor();
  QueryWorkspace ws;
  // Warm-up: grows the workspace buffers and the metric registry's
  // per-thread shards.
  for (int round = 0; round < 2; ++round) {
    for (const RangeQuery& q : queries_) {
      processor.Answer(q, CountKind::kStatic, BoundMode::kLower, nullptr, &ws);
      processor.Answer(q, CountKind::kTransient, BoundMode::kUpper, nullptr,
                       &ws);
    }
  }
  util::AllocProbe probe;
  for (const RangeQuery& q : queries_) {
    processor.Answer(q, CountKind::kStatic, BoundMode::kLower, nullptr, &ws);
    processor.Answer(q, CountKind::kTransient, BoundMode::kUpper, nullptr,
                     &ws);
  }
  EXPECT_EQ(probe.Delta(), 0u);
}

TEST_F(WorkspaceFixture, UnsampledProcessorWarmPathDoesNotAllocate) {
  UnsampledQueryProcessor processor(framework_.network());
  QueryWorkspace ws;
  for (int round = 0; round < 2; ++round) {
    for (const RangeQuery& q : queries_) {
      processor.Answer(q, CountKind::kStatic, nullptr, &ws);
      processor.Answer(q, CountKind::kTransient, nullptr, &ws);
    }
  }
  util::AllocProbe probe;
  for (const RangeQuery& q : queries_) {
    processor.Answer(q, CountKind::kStatic, nullptr, &ws);
    processor.Answer(q, CountKind::kTransient, nullptr, &ws);
  }
  EXPECT_EQ(probe.Delta(), 0u);
}

TEST_F(WorkspaceFixture, EngineWarmCacheHitPathDoesNotAllocate) {
  forms::FrozenTrackingForm frozen = deployment_->tracking_store()->Freeze();
  // Bare, then with every query traced into the tracer's ring and folded
  // into a digest table: the profile both read is plain stack data.
  obs::Tracer tracer(obs::TracerOptions{});
  obs::QueryDigestTable digest;
  for (bool traced : {false, true}) {
    runtime::BatchEngineOptions options;
    options.num_threads = 0;  // Serial: the probe window is single-threaded.
    if (traced) {
      options.tracer = &tracer;
      options.digest = &digest;
    }
    runtime::BatchQueryEngine engine(deployment_->graph(), frozen, options);
    // First pass resolves and caches every region (cold, allocates); the
    // second warms metric shards and the LRU touch path.
    for (int round = 0; round < 2; ++round) {
      for (const RangeQuery& q : queries_) {
        engine.Answer(q, CountKind::kStatic, BoundMode::kLower);
      }
    }
    util::AllocProbe probe;
    for (const RangeQuery& q : queries_) {
      engine.Answer(q, CountKind::kStatic, BoundMode::kLower);
    }
    EXPECT_EQ(probe.Delta(), 0u) << (traced ? "traced" : "bare");
  }
  EXPECT_EQ(tracer.Sampled(), 3 * queries_.size());
}

}  // namespace
}  // namespace innet::core
