#include <gtest/gtest.h>

#include <cstring>

#include "graph/shortest_path.h"
#include "mobility/map_matching.h"
#include "mobility/perturbation.h"
#include "mobility/road_network.h"
#include "mobility/trajectory.h"
#include "mobility/trajectory_generator.h"
#include "spatial/kdtree.h"
#include "util/rng.h"

namespace innet::mobility {
namespace {

graph::PlanarGraph SmallNetwork(uint64_t seed) {
  util::Rng rng(seed);
  RoadNetworkOptions options;
  options.num_junctions = 150;
  return GenerateRoadNetwork(options, rng);
}

TEST(TrajectoryTest, ValidChecksAdjacencyAndTimes) {
  graph::PlanarGraph g = SmallNetwork(1);
  // Walk two hops from node 0.
  graph::NodeId a = 0;
  graph::NodeId b = g.NeighborsOf(a)[0].node;
  graph::NodeId c = g.NeighborsOf(b)[0].node;
  Trajectory ok{{a, b, c}, {0.0, 1.0, 2.0}};
  EXPECT_TRUE(ok.Valid(g));
  Trajectory bad_time{{a, b}, {1.0, 1.0}};
  EXPECT_FALSE(bad_time.Valid(g));
  Trajectory mismatched{{a, b}, {0.0}};
  EXPECT_FALSE(mismatched.Valid(g));
}

TEST(TrajectoryTest, CrossingEventsFollowPath) {
  graph::PlanarGraph g = SmallNetwork(2);
  graph::NodeId a = 5;
  graph::NodeId b = g.NeighborsOf(a)[0].node;
  graph::NodeId c = g.NeighborsOf(b).back().node;
  Trajectory t{{a, b, c}, {0.0, 2.0, 5.0}};
  ASSERT_TRUE(t.Valid(g));
  std::vector<CrossingEvent> events = ExtractCrossingEvents(g, t);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].edge, g.EdgeBetween(a, b));
  EXPECT_DOUBLE_EQ(events[0].time, 2.0);
  EXPECT_EQ(events[0].forward, g.Edge(events[0].edge).u == a);
  EXPECT_EQ(events[1].edge, g.EdgeBetween(b, c));
  EXPECT_DOUBLE_EQ(events[1].time, 5.0);
}

TEST(TrajectoryTest, AllEventsSortedByTime) {
  graph::PlanarGraph g = SmallNetwork(3);
  util::Rng rng(3);
  TrajectoryOptions options;
  options.num_trajectories = 50;
  std::vector<Trajectory> trajectories = GenerateTrajectories(g, options, rng);
  std::vector<CrossingEvent> events = ExtractAllCrossingEvents(g, trajectories);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
}

class GeneratorProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorProperty, TrajectoriesValidAndGatewayStarted) {
  graph::PlanarGraph g = SmallNetwork(GetParam());
  util::Rng rng(GetParam() + 500);
  TrajectoryOptions options;
  options.num_trajectories = 80;
  std::vector<Trajectory> trajectories = GenerateTrajectories(g, options, rng);
  EXPECT_EQ(trajectories.size(), 80u);
  std::vector<bool> gateway = GatewayMask(g);
  for (const Trajectory& t : trajectories) {
    EXPECT_TRUE(t.Valid(g));
    EXPECT_GE(t.nodes.size(), 2u);
    EXPECT_TRUE(gateway[t.nodes.front()])
        << "trajectory must enter via a gateway";
    EXPECT_GE(t.times.front(), 0.0);
  }
}

TEST_P(GeneratorProperty, InteriorStartsWhenDisabled) {
  graph::PlanarGraph g = SmallNetwork(GetParam());
  util::Rng rng(GetParam() + 900);
  TrajectoryOptions options;
  options.num_trajectories = 60;
  options.enter_from_boundary = false;
  std::vector<Trajectory> trajectories = GenerateTrajectories(g, options, rng);
  std::vector<bool> gateway = GatewayMask(g);
  size_t interior_starts = 0;
  for (const Trajectory& t : trajectories) {
    EXPECT_TRUE(t.Valid(g));
    if (!gateway[t.nodes.front()]) ++interior_starts;
  }
  EXPECT_GT(interior_starts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty, ::testing::Values(4, 5));

TEST(OracleTest, TracksOccupancyThroughCells) {
  graph::PlanarGraph g = SmallNetwork(6);
  graph::NodeId a = 3;
  graph::NodeId b = g.NeighborsOf(a)[0].node;
  graph::NodeId c = g.NeighborsOf(b).back().node;
  ASSERT_NE(a, c);
  Trajectory t{{a, b, c}, {1.0, 2.0, 3.0}};
  ASSERT_TRUE(t.Valid(g));
  OccupancyOracle oracle(g, {t});

  std::vector<bool> cell_b(g.NumNodes(), false);
  cell_b[b] = true;
  // Interior start: visible from arrival at b (t=2), leaves at t=3.
  EXPECT_EQ(oracle.OccupancyAt(cell_b, 1.5), 0);
  EXPECT_EQ(oracle.OccupancyAt(cell_b, 2.0), 1);
  EXPECT_EQ(oracle.OccupancyAt(cell_b, 2.9), 1);
  EXPECT_EQ(oracle.OccupancyAt(cell_b, 3.0), 0);

  std::vector<bool> cell_c(g.NumNodes(), false);
  cell_c[c] = true;
  // Final cell is occupied forever.
  EXPECT_EQ(oracle.OccupancyAt(cell_c, 3.0), 1);
  EXPECT_EQ(oracle.OccupancyAt(cell_c, 1e9), 1);
  EXPECT_EQ(oracle.NetChange(cell_c, 0.0, 10.0), 1);
  EXPECT_EQ(oracle.NetChange(cell_b, 2.5, 10.0), -1);
}

TEST(OracleTest, GatewayStartVisibleFromStart) {
  graph::PlanarGraph g = SmallNetwork(7);
  std::vector<graph::NodeId> gateways = GatewayJunctions(g);
  graph::NodeId a = gateways[0];
  graph::NodeId b = g.NeighborsOf(a)[0].node;
  Trajectory t{{a, b}, {1.0, 2.0}};
  std::vector<bool> mask = GatewayMask(g);
  OccupancyOracle oracle(g, {t}, &mask);
  std::vector<bool> cell_a(g.NumNodes(), false);
  cell_a[a] = true;
  EXPECT_EQ(oracle.OccupancyAt(cell_a, 0.5), 0);  // Before entry.
  EXPECT_EQ(oracle.OccupancyAt(cell_a, 1.0), 1);  // Entered via ⋆v_ext.
  EXPECT_EQ(oracle.OccupancyAt(cell_a, 2.0), 0);  // Moved on to b.
}

TEST(OracleTest, DistinctVisitors) {
  graph::PlanarGraph g = SmallNetwork(8);
  graph::NodeId a = 10;
  graph::NodeId b = g.NeighborsOf(a)[0].node;
  graph::NodeId c = g.NeighborsOf(b).back().node;
  ASSERT_NE(a, c);
  // Object visits b during [2, 3).
  Trajectory t{{a, b, c}, {1.0, 2.0, 3.0}};
  OccupancyOracle oracle(g, {t});
  std::vector<bool> cell_b(g.NumNodes(), false);
  cell_b[b] = true;
  EXPECT_EQ(oracle.DistinctVisitors(cell_b, 0.0, 1.5), 0);
  EXPECT_EQ(oracle.DistinctVisitors(cell_b, 0.0, 2.0), 1);
  EXPECT_EQ(oracle.DistinctVisitors(cell_b, 2.5, 2.7), 1);
  EXPECT_EQ(oracle.DistinctVisitors(cell_b, 3.5, 9.0), 0);
}

// World pins. Every world the repo builds is pinned by a digest of its trips
// (node ids and time bit patterns) and of the generating stream's next raw
// draw after them, so a change to routing or to the generator's draws
// cannot pass unnoticed. The constants were captured with the Dijkstra-routed
// generator; the A* router must reproduce them bit for bit. util::Rng draws
// through library-defined distributions, so they hold for libstdc++ only.

struct Pin {
  uint64_t trips = 0;
  uint64_t next_draw = 0;
};

Pin PinOf(const std::vector<Trajectory>& trips, util::Rng& rng) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, 64-bit.
  auto mix = [&h](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (value >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(trips.size());
  for (const Trajectory& t : trips) {
    mix(t.nodes.size());
    for (graph::NodeId n : t.nodes) mix(n);
    for (double time : t.times) {
      uint64_t bits = 0;
      std::memcpy(&bits, &time, sizeof(bits));
      mix(bits);
    }
  }
  return {h, rng.engine()()};
}

void ExpectPin(const Pin& got, const Pin& want, const char* world) {
  EXPECT_EQ(got.trips, want.trips) << world << ": trips changed";
  EXPECT_EQ(got.next_draw, want.next_draw) << world << ": stream changed";
}

class WorldPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef __GLIBCXX__
    GTEST_SKIP() << "pins hold only for libstdc++'s distributions";
#endif
  }
};

// core::Framework's streams: the road network and the trips each draw from
// their own fork of the seed's stream.
Pin FrameworkWorldPin(size_t junctions, double world_size, size_t trips,
                      double horizon, uint64_t seed) {
  util::Rng root(seed);
  RoadNetworkOptions road;
  road.num_junctions = junctions;
  road.world_size = world_size;
  util::Rng road_rng = root.Fork();
  graph::PlanarGraph g = GenerateRoadNetwork(road, road_rng);
  TrajectoryOptions traffic;
  traffic.num_trajectories = trips;
  traffic.horizon = horizon;
  util::Rng traffic_rng = root.Fork();
  std::vector<Trajectory> generated =
      GenerateTrajectories(g, traffic, traffic_rng);
  return PinOf(generated, traffic_rng);
}

// innet_dataset generate: one stream for the road network, then the trips.
Pin DatasetToolPin(size_t junctions, size_t trips, double horizon,
                   uint64_t seed) {
  util::Rng rng(seed);
  RoadNetworkOptions road;
  road.num_junctions = junctions;
  road.world_size = 15000.0;  // The tool's --world-size default.
  graph::PlanarGraph g = GenerateRoadNetwork(road, rng);
  TrajectoryOptions traffic;
  traffic.num_trajectories = trips;
  traffic.horizon = horizon;
  std::vector<Trajectory> generated = GenerateTrajectories(g, traffic, rng);
  return PinOf(generated, rng);
}

TEST_F(WorldPinTest, BenchAndToolWorlds) {
  // bench::DefaultWorld(42): perfbench's city, headline and the figure
  // benches.
  ExpectPin(FrameworkWorldPin(2500, 30000.0, 8000, 6.0 * 3600.0, 42),
            {0xdacb24cd513cf991ull, 0xb0e8d54eac12ba9cull},
            "DefaultWorld(42)");
  ExpectPin(FrameworkWorldPin(120, 8000.0, 300, 1800.0, 42),
            {0xb28133856bd5c1c0ull, 0x8fb8b3635bdc0d28ull},
            "headline --tiny");
  // micro_benchmarks: the --json kernel report's world and SharedWorld.
  ExpectPin(FrameworkWorldPin(400, 10000.0, 1200, 6.0 * 3600.0, 99),
            {0x77da4cdc5fba1ddeull, 0xa5a2beeb1ddb4d83ull},
            "kernel report");
  ExpectPin(FrameworkWorldPin(800, 10000.0, 2000, 6.0 * 3600.0, 99),
            {0xd3e8ea6fb30223d8ull, 0xeb501fe7a403fcc6ull},
            "micro_benchmarks SharedWorld");
  // CI's fixture: generate --junctions 120 --trips 40 --horizon 600 --seed 3.
  ExpectPin(DatasetToolPin(120, 40, 600.0, 3),
            {0x32c12c8bb884021eull, 0xce5570395b5ef3ecull}, "CI fixture");
}

TEST_F(WorldPinTest, GeneratorTestWorlds) {
  // GeneratorProperty's worlds, entering from a gateway and not.
  graph::PlanarGraph g4 = SmallNetwork(4);
  util::Rng rng4(504);
  TrajectoryOptions entering;
  entering.num_trajectories = 80;
  std::vector<Trajectory> trips4 = GenerateTrajectories(g4, entering, rng4);
  ExpectPin(PinOf(trips4, rng4),
            {0x13d206c9e51b0cd5ull, 0xbb2286a541d9af5bull},
            "seed 4, gateway entry");

  graph::PlanarGraph g5 = SmallNetwork(5);
  util::Rng rng5(905);
  TrajectoryOptions interior;
  interior.num_trajectories = 60;
  interior.enter_from_boundary = false;
  std::vector<Trajectory> trips5 = GenerateTrajectories(g5, interior, rng5);
  ExpectPin(PinOf(trips5, rng5),
            {0xef983318483c6ceeull, 0x8ed90c607fffd7a8ull},
            "seed 5, interior");
}

TEST_F(WorldPinTest, PerturbationTestWorld) {
  // perturbation_test's world, perturbed with the default options.
  util::Rng rng(51);
  RoadNetworkOptions road;
  road.num_junctions = 250;
  graph::PlanarGraph g = GenerateRoadNetwork(road, rng);
  TrajectoryOptions traffic;
  traffic.num_trajectories = 150;
  std::vector<Trajectory> trips = GenerateTrajectories(g, traffic, rng);
  std::vector<Trajectory> perturbed =
      PerturbTrajectories(g, trips, PerturbationOptions{}, rng);
  ExpectPin(PinOf(perturbed, rng),
            {0x46e5c201391aa60cull, 0x381ecbaef7ea4f7dull}, "perturbed");
}

TEST_F(WorldPinTest, MapMatchingTestWorld) {
  // map_matching_test's noisy round trip (30 m noise) through MapMatch.
  util::Rng rng(4);
  RoadNetworkOptions road;
  road.num_junctions = 200;
  graph::PlanarGraph g = GenerateRoadNetwork(road, rng);
  TrajectoryOptions traffic;
  traffic.num_trajectories = 10;
  traffic.enter_from_boundary = false;
  util::Rng trip_rng(44);
  std::vector<Trajectory> trips = GenerateTrajectories(g, traffic, trip_rng);
  graph::EuclideanRouter router(g);
  spatial::KdTree index(g.positions());
  util::Rng noise_rng(45);
  std::vector<Trajectory> matched;
  for (const Trajectory& truth : trips) {
    GpsTrace trace = SynthesizeGpsTrace(g, truth, 20.0, 30.0, noise_rng);
    matched.push_back(MapMatch(g, router, index, trace));
  }
  ExpectPin(PinOf(matched, noise_rng),
            {0x05ee5a7b97f6ae69ull, 0x601ef51e2959f48full}, "map-matched");
}

}  // namespace
}  // namespace innet::mobility
