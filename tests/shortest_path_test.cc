#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "graph/connectivity.h"
#include "graph/shortest_path.h"
#include "mobility/road_network.h"
#include "util/rng.h"

namespace innet::graph {
namespace {

WeightedAdjacency MakeWeighted(
    size_t n, const std::vector<std::tuple<NodeId, NodeId, double>>& edges) {
  WeightedAdjacency adj(n);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    auto [u, v, w] = edges[e];
    adj[u].push_back({v, e, w});
    adj[v].push_back({u, e, w});
  }
  return adj;
}

TEST(ShortestPathTest, SimpleChain) {
  WeightedAdjacency adj = MakeWeighted(4, {{0, 1, 1.0}, {1, 2, 2.0},
                                           {2, 3, 3.0}});
  auto path = ShortestPath(adj, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 6.0);
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(path->edges.size(), 3u);
}

TEST(ShortestPathTest, PrefersCheaperDetour) {
  // Direct edge costs 10, detour 0-1-2 costs 3.
  WeightedAdjacency adj =
      MakeWeighted(3, {{0, 2, 10.0}, {0, 1, 1.0}, {1, 2, 2.0}});
  auto path = ShortestPath(adj, 0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 3.0);
  EXPECT_EQ(path->nodes.size(), 3u);
}

TEST(ShortestPathTest, Unreachable) {
  WeightedAdjacency adj = MakeWeighted(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_FALSE(ShortestPath(adj, 0, 3).has_value());
}

TEST(ShortestPathTest, SourceEqualsTarget) {
  WeightedAdjacency adj = MakeWeighted(2, {{0, 1, 1.0}});
  auto path = ShortestPath(adj, 0, 0);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 0.0);
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0}));
  EXPECT_TRUE(path->edges.empty());
}

TEST(ShortestPathTest, BlockedNodeForcesDetour) {
  //   0 - 1 - 4
  //    \ 2  /
  //     \| /
  //      3
  WeightedAdjacency adj = MakeWeighted(
      5, {{0, 1, 1.0}, {1, 4, 1.0}, {0, 3, 1.0}, {3, 4, 1.0}, {2, 3, 1.0}});
  std::vector<bool> blocked(5, false);
  blocked[1] = true;
  auto path = ShortestPath(adj, 0, 4, &blocked);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 3, 4}));
}

TEST(ShortestPathTest, DistancesMatchPathCosts) {
  util::Rng rng(17);
  mobility::RoadNetworkOptions options;
  options.num_junctions = 120;
  PlanarGraph g = mobility::GenerateRoadNetwork(options, rng);
  WeightedAdjacency adj = EuclideanAdjacency(g);
  std::vector<double> dist = DijkstraDistances(adj, 0);
  for (NodeId target : {NodeId{5}, NodeId{50}, NodeId{100}}) {
    auto path = ShortestPath(adj, 0, target);
    ASSERT_TRUE(path.has_value());
    EXPECT_NEAR(path->cost, dist[target], 1e-9);
    // Path cost equals the sum of its edge lengths.
    double total = 0.0;
    for (EdgeId e : path->edges) total += g.EdgeLength(e);
    EXPECT_NEAR(total, path->cost, 1e-9);
    // Consecutive path nodes are adjacent.
    for (size_t i = 0; i + 1 < path->nodes.size(); ++i) {
      EXPECT_NE(g.EdgeBetween(path->nodes[i], path->nodes[i + 1]),
                kInvalidEdge);
    }
  }
}

TEST(ShortestPathTest, TriangleInequalityProperty) {
  util::Rng rng(18);
  mobility::RoadNetworkOptions options;
  options.num_junctions = 100;
  PlanarGraph g = mobility::GenerateRoadNetwork(options, rng);
  WeightedAdjacency adj = EuclideanAdjacency(g);
  std::vector<double> from0 = DijkstraDistances(adj, 0);
  std::vector<double> from7 = DijkstraDistances(adj, 7);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_LE(from0[n], from0[7] + from7[n] + 1e-9);
  }
}

TEST(BfsTest, HopsOnChain) {
  WeightedAdjacency adj =
      MakeWeighted(4, {{0, 1, 5.0}, {1, 2, 5.0}, {2, 3, 5.0}});
  std::vector<uint32_t> hops = BfsHops(adj, 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[3], 3u);
}

TEST(BfsTest, UnreachableIsMax) {
  WeightedAdjacency adj = MakeWeighted(3, {{0, 1, 1.0}});
  std::vector<uint32_t> hops = BfsHops(adj, 0);
  EXPECT_EQ(hops[2], std::numeric_limits<uint32_t>::max());
}

TEST(ConnectivityTest, Components) {
  WeightedAdjacency adj = MakeWeighted(5, {{0, 1, 1.0}, {2, 3, 1.0}});
  ComponentLabels labels = ConnectedComponents(adj);
  EXPECT_EQ(labels.count, 3u);
  EXPECT_EQ(labels.label[0], labels.label[1]);
  EXPECT_EQ(labels.label[2], labels.label[3]);
  EXPECT_NE(labels.label[0], labels.label[2]);
  EXPECT_NE(labels.label[4], labels.label[0]);
  EXPECT_FALSE(IsConnected(adj));
}

TEST(ConnectivityTest, RemovedEdgesSplitGraph) {
  // Path 0-1-2: removing the middle edge splits into {0,1} and {2}.
  std::vector<geometry::Point> positions = {{0, 0}, {1, 0}, {2, 0.1}};
  std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2}};
  // PlanarGraph requires connectivity; this path is connected.
  PlanarGraph g(std::move(positions), std::move(edges));
  std::vector<bool> removed = {false, true};
  ComponentLabels labels = ComponentsWithRemovedEdges(g, removed);
  EXPECT_EQ(labels.count, 2u);
  EXPECT_EQ(labels.label[0], labels.label[1]);
  EXPECT_NE(labels.label[1], labels.label[2]);
}

TEST(ShortestPathTest, AveragePathHopsPositive) {
  util::Rng rng(19);
  mobility::RoadNetworkOptions options;
  options.num_junctions = 100;
  PlanarGraph g = mobility::GenerateRoadNetwork(options, rng);
  WeightedAdjacency adj = EuclideanAdjacency(g);
  double avg = EstimateAveragePathHops(adj, 20, 99);
  EXPECT_GT(avg, 1.0);
  EXPECT_LT(avg, static_cast<double>(g.NumNodes()));
}

// The A* router against Dijkstra over the same Euclidean weights, bit for
// bit: the same nodes, the same edges and the same cost bit pattern. Returns
// the number of pairs that differ, and names the first.
size_t RouteMismatches(const PlanarGraph& g,
                       const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  WeightedAdjacency adj = EuclideanAdjacency(g);
  EuclideanRouter router(g);
  size_t mismatches = 0;
  for (const auto& [src, dst] : pairs) {
    std::optional<Path> want = ShortestPath(adj, src, dst);
    Path got = router.Route(src, dst);
    EXPECT_TRUE(want.has_value());
    if (!want.has_value()) continue;
    uint64_t got_bits = 0;
    uint64_t want_bits = 0;
    std::memcpy(&got_bits, &got.cost, sizeof(got_bits));
    std::memcpy(&want_bits, &want->cost, sizeof(want_bits));
    if (got.nodes == want->nodes && got.edges == want->edges &&
        got_bits == want_bits) {
      continue;
    }
    if (mismatches++ == 0) {
      ADD_FAILURE() << "router and Dijkstra differ on " << src << " -> "
                    << dst << " (" << g.NumNodes() << " junctions)";
    }
  }
  return mismatches;
}

struct OracleWorld {
  size_t junctions;
  double world_size;
  uint64_t seed;
};

void PrintTo(const OracleWorld& world, std::ostream* os) {
  *os << world.junctions << " junctions, seed " << world.seed;
}

class RouterOracle : public ::testing::TestWithParam<OracleWorld> {};

// 2,000 seeded pairs per generated network, plus every node to itself and
// both directions of every 7th edge.
TEST_P(RouterOracle, MatchesDijkstraBitForBit) {
  const OracleWorld& world = GetParam();
  util::Rng rng(world.seed);
  mobility::RoadNetworkOptions options;
  options.num_junctions = world.junctions;
  options.world_size = world.world_size;
  PlanarGraph g = mobility::GenerateRoadNetwork(options, rng);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  util::Rng pair_rng(world.seed + 1);
  for (int i = 0; i < 2000; ++i) {
    pairs.emplace_back(
        static_cast<NodeId>(pair_rng.UniformIndex(g.NumNodes())),
        static_cast<NodeId>(pair_rng.UniformIndex(g.NumNodes())));
  }
  for (NodeId n = 0; n < g.NumNodes(); n += 5) pairs.emplace_back(n, n);
  for (EdgeId e = 0; e < g.NumEdges(); e += 7) {
    pairs.emplace_back(g.Edge(e).u, g.Edge(e).v);
    pairs.emplace_back(g.Edge(e).v, g.Edge(e).u);
  }
  EXPECT_EQ(RouteMismatches(g, pairs), 0u);
}

// The sizes of the CI fixture and headline --tiny (120), the test worlds
// (250), the kernel report (400) and perfbench's city (2,500).
INSTANTIATE_TEST_SUITE_P(
    GeneratedNetworks, RouterOracle,
    ::testing::Values(OracleWorld{120, 8000.0, 3},
                      OracleWorld{250, 10000.0, 51},
                      OracleWorld{400, 10000.0, 99},
                      OracleWorld{2500, 30000.0, 42}));

TEST(RouterTest, SourceEqualsTargetIsOneNode) {
  util::Rng rng(5);
  mobility::RoadNetworkOptions options;
  options.num_junctions = 120;
  PlanarGraph g = mobility::GenerateRoadNetwork(options, rng);
  Path path = EuclideanRouter(g).Route(17, 17);
  EXPECT_EQ(path.nodes, (std::vector<NodeId>{17}));
  EXPECT_TRUE(path.edges.empty());
  EXPECT_EQ(path.cost, 0.0);
}

TEST(RouterTest, ZeroLengthEdge) {
  // A square whose corner 2 is doubled by junction 4 at the same point: the
  // 2-4 road has length zero, and the heuristic is equal at both ends.
  std::vector<geometry::Point> positions = {
      {0, 0}, {10, 0}, {10, 10}, {0, 10}, {10, 10}, {5, 3}};
  std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {1, 2}, {2, 4}, {4, 3}, {3, 0}, {0, 5}, {5, 2}};
  PlanarGraph g(std::move(positions), std::move(edges));
  ASSERT_EQ(g.EdgeLength(g.EdgeBetween(2, 4)), 0.0);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) pairs.emplace_back(a, b);
  }
  EXPECT_EQ(RouteMismatches(g, pairs), 0u);
  Path across = EuclideanRouter(g).Route(4, 1);
  EXPECT_EQ(across.nodes, (std::vector<NodeId>{4, 2, 1}));
  EXPECT_EQ(across.cost, 10.0);
}

}  // namespace
}  // namespace innet::graph
