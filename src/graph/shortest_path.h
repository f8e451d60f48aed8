// Dijkstra / A* / BFS routing. Dijkstra materializes sampled-graph edges as
// shortest paths in the sensing graph (§4.5) and models in-network
// aggregation routes (§5.4). A* (EuclideanRouter) routes trips over the
// mobility graph: the trip generator, map matching (§5.1.3) and trajectory
// perturbation.
#ifndef INNET_GRAPH_SHORTEST_PATH_H_
#define INNET_GRAPH_SHORTEST_PATH_H_

#include <optional>
#include <vector>

#include "geometry/point.h"
#include "graph/planar_graph.h"
#include "graph/weighted_adjacency.h"

namespace innet::graph {

/// A node-and-edge path with its total weight.
struct Path {
  std::vector<NodeId> nodes;  // size k+1 for k edges
  std::vector<EdgeId> edges;  // `via` ids from the adjacency
  double cost = 0.0;
};

/// Shortest path from `src` to `dst` by Dijkstra. Nodes flagged in `blocked`
/// (if given) may not be visited (src/dst must not be blocked). Returns
/// nullopt when unreachable.
std::optional<Path> ShortestPath(const WeightedAdjacency& adjacency,
                                 NodeId src, NodeId dst,
                                 const std::vector<bool>* blocked = nullptr);

/// Single-source shortest-path distances (infinity for unreachable nodes).
std::vector<double> DijkstraDistances(
    const WeightedAdjacency& adjacency, NodeId src,
    const std::vector<bool>* blocked = nullptr);

/// Point-to-point shortest paths over a planar graph's Euclidean edge
/// lengths, by A* (Hart, Nilsson & Raphael 1968) with the straight-line
/// distance to the target as the heuristic. The router owns the positions
/// and the EuclideanAdjacency it searches, both taken from one graph, so
/// every weight is at least the straight-line distance it spans and the
/// heuristic is admissible by construction.
///
/// A route runs the same search loop as ShortestPath, ordered by g + h
/// instead of g, and settles far fewer nodes. Its nodes, edges and cost bits
/// equal ShortestPath(EuclideanAdjacency(graph), src, dst) unless two paths
/// tie exactly in cost; tests/shortest_path_test.cc pins the equality on the
/// generated road networks. Route is const and thread-safe.
class EuclideanRouter {
 public:
  explicit EuclideanRouter(const PlanarGraph& graph);

  /// The shortest path from `src` to `dst` (a PlanarGraph is connected, so
  /// it always exists). src == dst gives the one-node path.
  Path Route(NodeId src, NodeId dst) const;

 private:
  std::vector<geometry::Point> positions_;
  WeightedAdjacency adjacency_;
};

/// Single-source hop counts via BFS (UINT32_MAX for unreachable nodes).
std::vector<uint32_t> BfsHops(const WeightedAdjacency& adjacency, NodeId src);

/// Average shortest-path hop length over `num_samples` random source pairs,
/// a proxy for the small-world factor ℓ_G of §4.9. Pairs are derived
/// deterministically from `seed`.
double EstimateAveragePathHops(const WeightedAdjacency& adjacency,
                               size_t num_samples, uint64_t seed);

}  // namespace innet::graph

#endif  // INNET_GRAPH_SHORTEST_PATH_H_
