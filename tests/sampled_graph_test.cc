#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/framework.h"
#include "core/query_workspace.h"
#include "core/workload.h"
#include "perfbench_rects.h"
#include "sampling/samplers.h"

namespace innet::core {
namespace {

core::FrameworkOptions SmallOptions(uint64_t seed) {
  FrameworkOptions options;
  options.road.num_junctions = 250;
  options.traffic.num_trajectories = 300;
  options.seed = seed;
  return options;
}

class SampledGraphFixture : public ::testing::Test {
 protected:
  SampledGraphFixture() : framework_(SmallOptions(1)) {}
  Framework framework_;
};

TEST_F(SampledGraphFixture, FacesPartitionJunctions) {
  sampling::KdTreeSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 5, DeploymentOptions{},
      rng);
  const SampledGraph& g = dep.graph();
  std::vector<size_t> sizes(g.NumFaces(), 0);
  for (graph::NodeId n = 0; n < framework_.network().mobility().NumNodes();
       ++n) {
    uint32_t f = g.FaceOfJunction(n);
    ASSERT_LT(f, g.NumFaces());
    ++sizes[f];
  }
  size_t total = 0;
  for (uint32_t f = 0; f < g.NumFaces(); ++f) {
    EXPECT_EQ(sizes[f], g.FaceSize(f));
    total += sizes[f];
  }
  EXPECT_EQ(total, framework_.network().mobility().NumNodes());
}

TEST_F(SampledGraphFixture, MonitoredEdgesSeparateFaces) {
  sampling::UniformSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 4, DeploymentOptions{},
      rng);
  const SampledGraph& g = dep.graph();
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  // Unmonitored edges never separate faces.
  for (graph::EdgeId e = 0; e < mobility.NumEdges(); ++e) {
    const graph::EdgeRecord& rec = mobility.Edge(e);
    if (!g.IsMonitored(e)) {
      EXPECT_EQ(g.FaceOfJunction(rec.u), g.FaceOfJunction(rec.v));
    }
  }
  // Virtual edges are always monitored.
  EXPECT_TRUE(g.IsMonitored(
      static_cast<graph::EdgeId>(mobility.NumEdges())));
}

TEST_F(SampledGraphFixture, LowerFacesAreSubsetOfUpperFaces) {
  sampling::QuadTreeSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 4, DeploymentOptions{},
      rng);
  WorkloadOptions wo;
  wo.area_fraction = 0.08;
  wo.horizon = framework_.Horizon();
  util::Rng qrng = framework_.ForkRng();
  std::vector<RangeQuery> queries =
      GenerateWorkload(framework_.network(), wo, 15, qrng);
  for (const RangeQuery& q : queries) {
    std::vector<uint32_t> lower = dep.graph().LowerBoundFaces(q.junctions);
    std::vector<uint32_t> upper = dep.graph().UpperBoundFaces(q.junctions);
    std::set<uint32_t> upper_set(upper.begin(), upper.end());
    for (uint32_t f : lower) EXPECT_EQ(upper_set.count(f), 1u);
    // Lower faces fully inside; upper faces intersect.
    std::set<graph::NodeId> qset(q.junctions.begin(), q.junctions.end());
    for (uint32_t f : lower) {
      for (graph::NodeId n = 0;
           n < framework_.network().mobility().NumNodes(); ++n) {
        if (dep.graph().FaceOfJunction(n) == f) {
          EXPECT_EQ(qset.count(n), 1u);
        }
      }
    }
  }
}

TEST_F(SampledGraphFixture, BoundaryEdgesAreMonitoredAndSeparating) {
  sampling::SystematicSampler sampler;
  util::Rng rng = framework_.ForkRng();
  Deployment dep = framework_.DeployWithSampler(
      sampler, framework_.network().NumSensors() / 4, DeploymentOptions{},
      rng);
  WorkloadOptions wo;
  wo.area_fraction = 0.1;
  wo.horizon = framework_.Horizon();
  util::Rng qrng = framework_.ForkRng();
  std::vector<RangeQuery> queries =
      GenerateWorkload(framework_.network(), wo, 10, qrng);
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  for (const RangeQuery& q : queries) {
    std::vector<uint32_t> faces = dep.graph().UpperBoundFaces(q.junctions);
    SampledGraph::RegionBoundary boundary =
        dep.graph().BoundaryOfFaces(faces);
    std::set<uint32_t> region(faces.begin(), faces.end());
    for (const forms::BoundaryEdge& b : boundary.edges) {
      EXPECT_TRUE(dep.graph().IsMonitored(b.edge));
      if (b.edge < mobility.NumEdges()) {
        const graph::EdgeRecord& rec = mobility.Edge(b.edge);
        bool u_in = region.count(dep.graph().FaceOfJunction(rec.u)) > 0;
        bool v_in = region.count(dep.graph().FaceOfJunction(rec.v)) > 0;
        EXPECT_NE(u_in, v_in);
        EXPECT_EQ(b.inward_is_forward, v_in);
      }
    }
    if (!boundary.edges.empty()) {
      EXPECT_FALSE(boundary.sensors.empty());
    }
  }
}

TEST_F(SampledGraphFixture, StatsAreConsistent) {
  sampling::KdTreeSampler sampler;
  util::Rng rng = framework_.ForkRng();
  size_t m = framework_.network().NumSensors() / 4;
  Deployment dep =
      framework_.DeployWithSampler(sampler, m, DeploymentOptions{}, rng);
  const SampledGraphStats& stats = dep.graph().stats();
  EXPECT_EQ(stats.num_comm_sensors, m);
  EXPECT_EQ(stats.num_monitored_edges, dep.graph().monitored_edges().size());
  EXPECT_EQ(stats.num_faces, dep.graph().NumFaces());
  EXPECT_GT(stats.num_faces, 1u);
  EXPECT_LE(stats.simplified_edges, stats.num_monitored_edges);
  EXPECT_GT(stats.simplified_nodes, 0u);
}

TEST_F(SampledGraphFixture, KnnProducesMoreFacesThanSparseTriangulation) {
  // §4.5/Fig. 14: k-NN with larger k yields more, smaller faces.
  util::Rng rng1 = framework_.ForkRng();
  sampling::KdTreeSampler sampler;
  size_t m = framework_.network().NumSensors() / 4;
  std::vector<graph::NodeId> sensors =
      sampler.Select(framework_.network().sensing(), m, rng1);

  DeploymentOptions knn3;
  knn3.graph.connectivity = Connectivity::kKnn;
  knn3.graph.knn_k = 3;
  DeploymentOptions knn8 = knn3;
  knn8.graph.knn_k = 8;
  Deployment d3 = framework_.DeployFromSensors(sensors, knn3);
  Deployment d8 = framework_.DeployFromSensors(sensors, knn8);
  EXPECT_GE(d8.graph().NumFaces(), d3.graph().NumFaces());
  EXPECT_GE(d8.graph().monitored_edges().size(),
            d3.graph().monitored_edges().size());
}

TEST_F(SampledGraphFixture, FromMonitoredEdgesAllEdges) {
  // Monitoring every edge: each junction becomes its own face.
  const graph::PlanarGraph& mobility = framework_.network().mobility();
  std::vector<graph::EdgeId> all;
  for (graph::EdgeId e = 0; e < mobility.NumEdges(); ++e) all.push_back(e);
  SampledGraph g =
      SampledGraph::FromMonitoredEdges(framework_.network(), all, {});
  EXPECT_EQ(g.NumFaces(), mobility.NumNodes());
}

TEST_F(SampledGraphFixture, MoreSensorsMeansMoreFaces) {
  sampling::UniformSampler sampler;
  size_t prev_faces = 0;
  for (size_t m : {10, 40, 120}) {
    util::Rng rng(7);  // Same stream for nested-ish samples.
    Deployment dep =
        framework_.DeployWithSampler(sampler, m, DeploymentOptions{}, rng);
    EXPECT_GE(dep.graph().NumFaces(), prev_faces);
    prev_faces = dep.graph().NumFaces();
  }
}

// Face resolution and boundary assembly against naive oracles, on the
// perfbench city's road network under kd-tree and QuadTree deployments at
// its 25.6% sensor fraction — deployments whose G̃ has large faces.
class SampledGraphOracleTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    FrameworkOptions options;
    options.road.num_junctions = 2500;
    options.road.world_size = 30000.0;
    options.traffic.num_trajectories = 20;
    options.seed = 42;
    framework_ = new Framework(options);
  }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }

  SampledGraphOracleTest() : network_(framework_->network()) {
    util::Rng rng(9);
    size_t m = static_cast<size_t>(0.256 * network_.NumSensors());
    std::unique_ptr<sampling::SensorSampler> sampler;
    if (GetParam() == 0) {
      sampler = std::make_unique<sampling::KdTreeSampler>();
    } else {
      sampler = std::make_unique<sampling::QuadTreeSampler>();
    }
    deployment_ = std::make_unique<Deployment>(framework_->DeployWithSampler(
        *sampler, m, DeploymentOptions{}, rng));
  }

  const SampledGraph& graph() const { return deployment_->graph(); }

  // R1 (kUpper): faces with a junction in Q_R. R2 (kLower): faces all of
  // whose junctions are in Q_R. Ascending.
  std::vector<uint32_t> NaiveFaces(const std::vector<graph::NodeId>& junctions,
                                   BoundMode bound) const {
    std::vector<bool> in_q(network_.mobility().NumNodes(), false);
    for (graph::NodeId n : junctions) in_q[n] = true;
    std::vector<size_t> hits(graph().NumFaces(), 0);
    for (graph::NodeId n = 0; n < in_q.size(); ++n) {
      if (in_q[n]) ++hits[graph().FaceOfJunction(n)];
    }
    std::vector<uint32_t> faces;
    for (uint32_t f = 0; f < graph().NumFaces(); ++f) {
      bool in = bound == BoundMode::kUpper ? hits[f] > 0
                                           : hits[f] == graph().FaceSize(f);
      if (in) faces.push_back(f);
    }
    return faces;
  }

  // The boundary of the faces' junction cells, sorted by edge id.
  std::vector<forms::BoundaryEdge> NaiveEdges(
      const std::vector<uint32_t>& faces) const {
    std::set<uint32_t> region(faces.begin(), faces.end());
    std::vector<bool> mask(network_.mobility().NumNodes(), false);
    for (graph::NodeId n = 0; n < mask.size(); ++n) {
      mask[n] = region.count(graph().FaceOfJunction(n)) > 0;
    }
    std::vector<forms::BoundaryEdge> edges =
        network_.RegionBoundaryWithVirtual(mask);
    std::sort(edges.begin(), edges.end(),
              [](const forms::BoundaryEdge& a, const forms::BoundaryEdge& b) {
                return a.edge < b.edge;
              });
    return edges;
  }

  // The documented first-encounter order: faces in the given order; per
  // face its monitored boundary edges ascending, left then right dual
  // endpoint; the ext node after the face's real edges if it holds a
  // gateway cell.
  std::vector<graph::NodeId> NaiveSensors(
      const std::vector<uint32_t>& faces) const {
    const graph::PlanarGraph& mobility = network_.mobility();
    std::set<uint32_t> region(faces.begin(), faces.end());
    std::vector<graph::NodeId> order;
    std::set<graph::NodeId> seen;
    auto visit = [&](graph::NodeId s) {
      if (seen.insert(s).second) order.push_back(s);
    };
    for (uint32_t f : faces) {
      for (graph::EdgeId e : graph().monitored_edges()) {
        const graph::EdgeRecord& rec = mobility.Edge(e);
        uint32_t fu = graph().FaceOfJunction(rec.u);
        uint32_t fv = graph().FaceOfJunction(rec.v);
        if (fu != f && fv != f) continue;
        if (region.count(fu) == region.count(fv)) continue;
        visit(rec.left);
        visit(rec.right);
      }
      for (graph::NodeId g : network_.gateways()) {
        if (graph().FaceOfJunction(g) == f) visit(network_.sensing().ExtNode());
      }
    }
    return order;
  }

  void ExpectMatchesOracles(const std::vector<graph::NodeId>& junctions,
                            const char* what) {
    QueryWorkspace ws;
    for (BoundMode bound : {BoundMode::kLower, BoundMode::kUpper}) {
      SCOPED_TRACE(std::string(what) + " / " + BoundModeName(bound));
      std::vector<uint32_t> faces = NaiveFaces(junctions, bound);
      graph().ResolveFaces(junctions, bound, ws);
      ASSERT_EQ(ws.faces, faces);
      EXPECT_EQ(bound == BoundMode::kLower ? graph().LowerBoundFaces(junctions)
                                           : graph().UpperBoundFaces(junctions),
                faces);
      std::vector<forms::BoundaryEdge> edges = NaiveEdges(faces);
      graph().BoundaryOfFaces(ws.faces, ws);
      ASSERT_EQ(ws.boundary_edges.size(), edges.size());
      for (size_t i = 0; i < edges.size(); ++i) {
        ASSERT_EQ(ws.boundary_edges[i].edge, edges[i].edge) << i;
        ASSERT_EQ(ws.boundary_edges[i].inward_is_forward,
                  edges[i].inward_is_forward)
            << "edge " << edges[i].edge;
      }
      EXPECT_EQ(ws.boundary_sensors, NaiveSensors(faces));
      // Faces in another order: the same edges, sensors in that order.
      std::vector<uint32_t> reversed(faces.rbegin(), faces.rend());
      SampledGraph::RegionBoundary boundary = graph().BoundaryOfFaces(reversed);
      ASSERT_EQ(boundary.edges.size(), edges.size());
      for (size_t i = 0; i < edges.size(); ++i) {
        ASSERT_EQ(boundary.edges[i].edge, edges[i].edge) << i;
      }
      EXPECT_EQ(boundary.sensors, NaiveSensors(reversed));
    }
  }

  static Framework* framework_;
  const SensorNetwork& network_;
  std::unique_ptr<Deployment> deployment_;
};

Framework* SampledGraphOracleTest::framework_ = nullptr;

TEST_P(SampledGraphOracleTest, DeploymentHasLargeFaces) {
  size_t largest = 0;
  for (uint32_t f = 0; f < graph().NumFaces(); ++f) {
    largest = std::max(largest, graph().FaceSize(f));
  }
  EXPECT_GE(largest, 10u);
}

TEST_P(SampledGraphOracleTest, PerfbenchQueriesMatchOracles) {
  for (const geometry::Rect& rect :
       PerfbenchRects(network_.DomainBounds(), 60, 3)) {
    ExpectMatchesOracles(network_.JunctionsInRect(rect), "perfbench query");
  }
}

TEST_P(SampledGraphOracleTest, DegenerateJunctionListsMatchOracles) {
  ExpectMatchesOracles({}, "empty");

  const geometry::Rect domain = network_.DomainBounds();
  geometry::Point c = domain.Center();
  std::vector<graph::NodeId> some = network_.JunctionsInRect(geometry::Rect(
      c.x - 0.2 * domain.Width(), c.y - 0.2 * domain.Height(),
      c.x + 0.2 * domain.Width(), c.y + 0.2 * domain.Height()));
  ASSERT_FALSE(some.empty());
  // Every junction listed twice, the second copy backwards, one thrice.
  std::vector<graph::NodeId> duplicated = some;
  duplicated.insert(duplicated.end(), some.rbegin(), some.rend());
  duplicated.push_back(some.front());
  ExpectMatchesOracles(duplicated, "duplicated");

  std::vector<graph::NodeId> every(network_.mobility().NumNodes());
  for (graph::NodeId n = 0; n < every.size(); ++n) every[n] = n;
  ExpectMatchesOracles(every, "every junction");

  ExpectMatchesOracles(network_.gateways(), "outer-face cells");
}

INSTANTIATE_TEST_SUITE_P(Samplers, SampledGraphOracleTest,
                         ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? std::string("KdTree")
                                                  : std::string("QuadTree");
                         });

}  // namespace
}  // namespace innet::core
