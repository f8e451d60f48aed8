#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "core/sensor_network.h"
#include "forms/frozen_tracking_form.h"
#include "forms/tracking_form.h"
#include "io/serialize.h"
#include "mobility/road_network.h"
#include "mobility/trajectory_generator.h"
#include "util/rng.h"

namespace innet::io {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("innet_io_" + name))
      .string();
}

struct World {
  World() : rng(3) {
    mobility::RoadNetworkOptions road;
    road.num_junctions = 150;
    graph = std::make_unique<graph::PlanarGraph>(
        mobility::GenerateRoadNetwork(road, rng));
    mobility::TrajectoryOptions traffic;
    traffic.num_trajectories = 40;
    trajectories = mobility::GenerateTrajectories(*graph, traffic, rng);
  }
  util::Rng rng;
  std::unique_ptr<graph::PlanarGraph> graph;
  std::vector<mobility::Trajectory> trajectories;
};

TEST(SerializeTest, RoadNetworkRoundTrip) {
  World w;
  std::string path = TempPath("graph.bin");
  ASSERT_TRUE(SaveRoadNetwork(*w.graph, path).ok());
  util::StatusOr<graph::PlanarGraph> loaded = LoadRoadNetwork(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumNodes(), w.graph->NumNodes());
  EXPECT_EQ(loaded->NumEdges(), w.graph->NumEdges());
  EXPECT_EQ(loaded->NumFaces(), w.graph->NumFaces());
  for (graph::NodeId n = 0; n < w.graph->NumNodes(); n += 13) {
    EXPECT_EQ(loaded->Position(n).x, w.graph->Position(n).x);
    EXPECT_EQ(loaded->Position(n).y, w.graph->Position(n).y);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, TrajectoriesRoundTrip) {
  World w;
  std::string path = TempPath("traj.bin");
  ASSERT_TRUE(SaveTrajectories(w.trajectories, path).ok());
  auto loaded = LoadTrajectories(path, w.graph.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), w.trajectories.size());
  for (size_t i = 0; i < loaded->size(); i += 7) {
    EXPECT_EQ((*loaded)[i].nodes, w.trajectories[i].nodes);
    EXPECT_EQ((*loaded)[i].times, w.trajectories[i].times);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsNotFound) {
  auto graph = LoadRoadNetwork(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), util::StatusCode::kNotFound);
  auto traj = LoadTrajectories(TempPath("does_not_exist.bin"));
  EXPECT_FALSE(traj.ok());
}

TEST(SerializeTest, BadMagicRejected) {
  std::string path = TempPath("bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a network file at all, padded to be long enough";
  }
  auto loaded = LoadRoadNetwork(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedFileRejected) {
  World w;
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveRoadNetwork(*w.graph, path).ok());
  // Chop the file in half.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  auto loaded = LoadRoadNetwork(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, WrongFileTypeRejected) {
  World w;
  std::string path = TempPath("crossed.bin");
  ASSERT_TRUE(SaveTrajectories(w.trajectories, path).ok());
  auto loaded = LoadRoadNetwork(path);  // Trajectory file as graph.
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, TrajectoryValidationAgainstGraph) {
  World w;
  // Corrupt one trajectory: jump between non-adjacent junctions.
  std::vector<mobility::Trajectory> bad = w.trajectories;
  mobility::Trajectory hop;
  graph::NodeId a = 0;
  graph::NodeId b = 0;
  for (graph::NodeId n = 1; n < w.graph->NumNodes(); ++n) {
    if (w.graph->EdgeBetween(a, n) == graph::kInvalidEdge) {
      b = n;
      break;
    }
  }
  ASSERT_NE(b, 0u);
  hop.nodes = {a, b};
  hop.times = {0.0, 1.0};
  bad.push_back(hop);
  std::string path = TempPath("badtraj.bin");
  ASSERT_TRUE(SaveTrajectories(bad, path).ok());
  // Without a graph the file loads; with one, validation rejects it.
  EXPECT_TRUE(LoadTrajectories(path).ok());
  auto checked = LoadTrajectories(path, w.graph.get());
  EXPECT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, NonMonotoneTimestampsRejected) {
  World w;
  std::vector<mobility::Trajectory> bad;
  mobility::Trajectory t = w.trajectories[0];
  ASSERT_GE(t.times.size(), 2u);
  std::swap(t.times[0], t.times[1]);
  bad.push_back(t);
  std::string path = TempPath("badtimes.bin");
  ASSERT_TRUE(SaveTrajectories(bad, path).ok());
  auto loaded = LoadTrajectories(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// Overwrites the 8 bytes at `offset` of `path` with `value`.
void PatchU64(const std::string& path, long offset, uint64_t value) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
  std::fclose(f);
}

// A header may claim counts of up to 2^32. Each claim is checked against
// the bytes left in the file before anything is sized from it, so a
// corrupt count is an InvalidArgument, not a multi-gigabyte allocation.
TEST(SerializeTest, ClaimedCountsBeyondTheFileAreRejected) {
  World w;
  std::string path = TempPath("claims.bin");
  constexpr uint64_t kClaim = 0xFFFFFFF0ull;

  // Trips: magic, trip count, then per trip its length and points.
  ASSERT_TRUE(SaveTrajectories(w.trajectories, path).ok());
  PatchU64(path, 8, kClaim);  // The trip count.
  auto trips = LoadTrajectories(path);
  ASSERT_FALSE(trips.ok());
  EXPECT_EQ(trips.status().code(), util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(SaveTrajectories(w.trajectories, path).ok());
  PatchU64(path, 16, kClaim);  // The first trip's length.
  trips = LoadTrajectories(path);
  ASSERT_FALSE(trips.ok());
  EXPECT_EQ(trips.status().code(), util::StatusCode::kInvalidArgument);

  // Road network: magic, node count, edge count.
  ASSERT_TRUE(SaveRoadNetwork(*w.graph, path).ok());
  PatchU64(path, 8, kClaim);
  auto graph = LoadRoadNetwork(path);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(SaveRoadNetwork(*w.graph, path).ok());
  PatchU64(path, 16, kClaim);
  graph = LoadRoadNetwork(path);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), util::StatusCode::kInvalidArgument);

  // Snapshot: magic, generation, covered epoch, covered events, slot
  // count, event count.
  forms::TrackingForm form(8);
  form.RecordTraversal(3, true, 1.5);
  form.RecordTraversal(5, false, 2.5);
  forms::FrozenTrackingForm frozen = form.Freeze();
  ASSERT_TRUE(SaveFrozenSnapshot(frozen, FrozenSnapshotMeta{}, path).ok());
  ASSERT_TRUE(LoadFrozenSnapshot(path).ok());
  PatchU64(path, 40, kClaim);  // The event count.
  auto snapshot = LoadFrozenSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(SaveFrozenSnapshot(frozen, FrozenSnapshotMeta{}, path).ok());
  PatchU64(path, 32, kClaim);  // The slot count (even, as required).
  snapshot = LoadFrozenSnapshot(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Writes a road-network file with the given junctions and roads, in the
// layout SaveRoadNetwork writes: magic, counts, coordinates, endpoints.
void WriteRawRoadNetwork(
    const std::string& path, const std::vector<geometry::Point>& positions,
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t header[3] = {0x696e6e657447521ull, positions.size(),
                              edges.size()};
  std::fwrite(header, sizeof(header), 1, f);
  for (const geometry::Point& p : positions) {
    std::fwrite(&p.x, sizeof(double), 1, f);
    std::fwrite(&p.y, sizeof(double), 1, f);
  }
  for (const auto& [u, v] : edges) {
    std::fwrite(&u, sizeof(u), 1, f);
    std::fwrite(&v, sizeof(v), 1, f);
  }
  std::fclose(f);
}

// Coordinates that are not finite, roads that cross, or a network in pieces
// make the file an InvalidArgument instead of an abort in the PlanarGraph
// constructor.
TEST(SerializeTest, NonPlanarOrNonFiniteNetworksAreRejected) {
  std::string path = TempPath("nonplanar.bin");
  const std::vector<std::pair<uint32_t, uint32_t>> cycle = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}};
  struct Case {
    const char* name;
    std::vector<geometry::Point> positions;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
  };
  std::vector<std::pair<uint32_t, uint32_t>> diagonals = cycle;
  diagonals.emplace_back(0, 2);
  diagonals.emplace_back(1, 3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // The crossed square alone has V - E + F = 0; two isolated junctions or a
  // triangle beside it bring the sum back to 2, so only the connectivity
  // check rejects these two.
  std::vector<std::pair<uint32_t, uint32_t>> diagonals_and_triangle =
      diagonals;
  diagonals_and_triangle.emplace_back(4, 5);
  diagonals_and_triangle.emplace_back(5, 6);
  diagonals_and_triangle.emplace_back(6, 4);
  const Case cases[] = {
      {"square with both diagonals", {{0, 0}, {1, 0}, {1, 1}, {0, 1}},
       diagonals},
      {"NaN coordinate", {{0, 0}, {1, 0}, {1, nan}, {0, 1}}, cycle},
      {"inf coordinate", {{0, 0}, {1, 0}, {inf, 1}, {0, 1}}, cycle},
      {"crossed square plus two isolated junctions",
       {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {5, 0}, {6, 0}},
       diagonals},
      {"crossed square beside a triangle",
       {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {5, 0}, {6, 0}, {5, 1}},
       diagonals_and_triangle},
  };
  for (const Case& c : cases) {
    WriteRawRoadNetwork(path, c.positions, c.edges);
    auto loaded = LoadRoadNetwork(path);
    ASSERT_FALSE(loaded.ok()) << c.name;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << c.name;
  }

  // Two junctions at one point (a zero-length road) is a degenerate but
  // valid embedding: it loads.
  WriteRawRoadNetwork(path, {{0, 0}, {1, 0}, {1, 1}, {1, 1}}, cycle);
  auto doubled = LoadRoadNetwork(path);
  ASSERT_TRUE(doubled.ok()) << doubled.status().ToString();
  EXPECT_EQ(doubled->EdgeLength(doubled->EdgeBetween(2, 3)), 0.0);
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadedWorldBehavesIdentically) {
  // Full round trip: rebuild the sensor network from disk and verify a
  // ground-truth count matches the original.
  World w;
  std::string gpath = TempPath("world_graph.bin");
  std::string tpath = TempPath("world_traj.bin");
  ASSERT_TRUE(SaveRoadNetwork(*w.graph, gpath).ok());
  ASSERT_TRUE(SaveTrajectories(w.trajectories, tpath).ok());
  auto graph2 = LoadRoadNetwork(gpath);
  ASSERT_TRUE(graph2.ok());
  auto traj2 = LoadTrajectories(tpath, &*graph2);
  ASSERT_TRUE(traj2.ok());

  core::SensorNetwork original(std::move(*w.graph));
  original.IngestTrajectories(w.trajectories);
  core::SensorNetwork restored(std::move(*graph2));
  restored.IngestTrajectories(*traj2);
  EXPECT_EQ(original.events().size(), restored.events().size());

  geometry::Rect probe = original.DomainBounds();
  probe = geometry::Rect(probe.min_x + probe.Width() * 0.3,
                         probe.min_y + probe.Height() * 0.3,
                         probe.min_x + probe.Width() * 0.7,
                         probe.min_y + probe.Height() * 0.7);
  std::vector<graph::NodeId> region = original.JunctionsInRect(probe);
  EXPECT_EQ(original.GroundTruthStatic(region, 5000.0),
            restored.GroundTruthStatic(region, 5000.0));
  std::remove(gpath.c_str());
  std::remove(tpath.c_str());
}

}  // namespace
}  // namespace innet::io
