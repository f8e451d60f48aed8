#include <gtest/gtest.h>

#include "graph/shortest_path.h"
#include "mobility/map_matching.h"
#include "mobility/road_network.h"
#include "mobility/trajectory_generator.h"
#include "spatial/kdtree.h"
#include "util/rng.h"

namespace innet::mobility {
namespace {

struct Fixture {
  explicit Fixture(uint64_t seed) : rng(seed) {
    RoadNetworkOptions options;
    options.num_junctions = 200;
    graph = std::make_unique<graph::PlanarGraph>(
        GenerateRoadNetwork(options, rng));
    router = std::make_unique<graph::EuclideanRouter>(*graph);
    index = std::make_unique<spatial::KdTree>(graph->positions());
  }
  util::Rng rng;
  std::unique_ptr<graph::PlanarGraph> graph;
  std::unique_ptr<graph::EuclideanRouter> router;
  std::unique_ptr<spatial::KdTree> index;
};

TEST(MapMatchingTest, EmptyTrace) {
  Fixture f(1);
  Trajectory t = MapMatch(*f.graph, *f.router, *f.index, GpsTrace{});
  EXPECT_TRUE(t.nodes.empty());
}

TEST(MapMatchingTest, StationaryTraceIsEmpty) {
  Fixture f(2);
  GpsTrace trace;
  trace.points.assign(5, f.graph->Position(0));
  trace.times = {0, 1, 2, 3, 4};
  Trajectory t = MapMatch(*f.graph, *f.router, *f.index, trace);
  EXPECT_TRUE(t.nodes.empty());  // Fewer than two distinct junctions.
}

TEST(MapMatchingTest, ExactSamplesRecoverPath) {
  Fixture f(3);
  // Ground-truth trip.
  TrajectoryOptions options;
  options.num_trajectories = 1;
  options.enter_from_boundary = false;
  util::Rng rng(33);
  std::vector<Trajectory> trips =
      GenerateTrajectories(*f.graph, options, rng);
  ASSERT_EQ(trips.size(), 1u);
  const Trajectory& truth = trips[0];

  // Noise-free samples exactly at the junctions.
  GpsTrace trace;
  trace.points.reserve(truth.nodes.size());
  for (size_t i = 0; i < truth.nodes.size(); ++i) {
    trace.points.push_back(f.graph->Position(truth.nodes[i]));
    trace.times.push_back(truth.times[i]);
  }
  Trajectory matched = MapMatch(*f.graph, *f.router, *f.index, trace);
  ASSERT_TRUE(matched.Valid(*f.graph));
  EXPECT_EQ(matched.nodes.front(), truth.nodes.front());
  EXPECT_EQ(matched.nodes.back(), truth.nodes.back());
  // A shortest-path reconnection of exact junction samples cannot be longer
  // than the original shortest-path trip.
  EXPECT_LE(matched.nodes.size(), truth.nodes.size() + 2);
}

class NoiseRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(NoiseRoundTrip, NoisyTraceMatchesNearTruth) {
  Fixture f(4);
  TrajectoryOptions options;
  options.num_trajectories = 10;
  options.enter_from_boundary = false;
  util::Rng trip_rng(44);
  std::vector<Trajectory> trips =
      GenerateTrajectories(*f.graph, options, trip_rng);
  util::Rng noise_rng(45);
  for (const Trajectory& truth : trips) {
    GpsTrace trace = SynthesizeGpsTrace(*f.graph, truth, /*sample_interval=*/20.0,
                                        GetParam(), noise_rng);
    if (trace.points.size() < 2) continue;
    Trajectory matched = MapMatch(*f.graph, *f.router, *f.index, trace);
    if (matched.nodes.empty()) continue;
    EXPECT_TRUE(matched.Valid(*f.graph));
    // Endpoints land near the true endpoints (within a few hundred meters,
    // i.e., a couple of junction spacings).
    double start_err = geometry::Distance(
        f.graph->Position(matched.nodes.front()),
        f.graph->Position(truth.nodes.front()));
    double end_err = geometry::Distance(
        f.graph->Position(matched.nodes.back()),
        f.graph->Position(truth.nodes.back()));
    EXPECT_LT(start_err, 2000.0);
    EXPECT_LT(end_err, 2000.0);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseRoundTrip,
                         ::testing::Values(0.0, 30.0, 120.0));

TEST(MapMatchingTest, SynthesizedTraceCoversTripDuration) {
  Fixture f(5);
  TrajectoryOptions options;
  options.num_trajectories = 1;
  util::Rng rng(55);
  std::vector<Trajectory> trips =
      GenerateTrajectories(*f.graph, options, rng);
  const Trajectory& truth = trips[0];
  GpsTrace trace =
      SynthesizeGpsTrace(*f.graph, truth, 10.0, 5.0, rng);
  ASSERT_GE(trace.points.size(), 2u);
  EXPECT_GE(trace.times.front(), truth.times.front());
  EXPECT_LE(trace.times.back(), truth.times.back() + 10.0);
  for (size_t i = 1; i < trace.times.size(); ++i) {
    EXPECT_GT(trace.times[i], trace.times[i - 1]);
  }
}

}  // namespace
}  // namespace innet::mobility
