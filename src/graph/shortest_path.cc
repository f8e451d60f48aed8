#include "graph/shortest_path.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>

#include "util/logging.h"
#include "util/rng.h"

namespace innet::graph {

namespace {

struct QueueEntry {
  double key;   // g + h(node): the pop order.
  double dist;  // g at push time; stale once the node's g has dropped.
  NodeId node;
  bool operator>(const QueueEntry& o) const { return key > o.key; }
};

struct SearchState {
  std::vector<double> dist;
  std::vector<NodeId> parent;
  std::vector<EdgeId> parent_edge;
};

// The one best-first search loop behind Dijkstra (h ≡ 0) and A*. Entries
// pop in order of g + h(node); with h ≡ 0 that is g, Dijkstra's order. Stops
// once `target` is settled (pass kInvalidNode to settle everything).
template <typename Heuristic>
SearchState Search(const WeightedAdjacency& adjacency, NodeId src,
                   NodeId target, const std::vector<bool>* blocked,
                   const Heuristic& h) {
  size_t n = adjacency.size();
  INNET_CHECK(src < n);
  SearchState state;
  state.dist.assign(n, std::numeric_limits<double>::infinity());
  state.parent.assign(n, kInvalidNode);
  state.parent_edge.assign(n, kInvalidEdge);
  if (blocked != nullptr) {
    INNET_CHECK(blocked->size() == n);
    INNET_CHECK(!(*blocked)[src]);
  }

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  state.dist[src] = 0.0;
  queue.push({h(src), 0.0, src});
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    NodeId u = top.node;
    if (top.dist > state.dist[u]) continue;
    if (u == target) break;
    for (const WeightedArc& arc : adjacency[u]) {
      if (blocked != nullptr && (*blocked)[arc.to]) continue;
      double candidate = top.dist + arc.weight;
      if (candidate < state.dist[arc.to]) {
        state.dist[arc.to] = candidate;
        state.parent[arc.to] = u;
        state.parent_edge[arc.to] = arc.via;
        queue.push({candidate + h(arc.to), candidate, arc.to});
      }
    }
  }
  return state;
}

double NoHeuristic(NodeId) { return 0.0; }

// Walks the parent links back from a reached `dst`.
Path PathTo(const SearchState& state, NodeId src, NodeId dst) {
  Path path;
  path.cost = state.dist[dst];
  for (NodeId cur = dst; cur != src; cur = state.parent[cur]) {
    path.nodes.push_back(cur);
    path.edges.push_back(state.parent_edge[cur]);
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

// Scales the straight-line heuristic just below the true distance, so
// rounding in the heuristic or in the summed weights cannot make it
// overestimate (and so cannot change which path wins).
constexpr double kHeuristicScale = 1.0 - 1e-9;

}  // namespace

std::optional<Path> ShortestPath(const WeightedAdjacency& adjacency,
                                 NodeId src, NodeId dst,
                                 const std::vector<bool>* blocked) {
  INNET_CHECK(dst < adjacency.size());
  SearchState state = Search(adjacency, src, dst, blocked, NoHeuristic);
  if (!std::isfinite(state.dist[dst])) return std::nullopt;
  return PathTo(state, src, dst);
}

std::vector<double> DijkstraDistances(const WeightedAdjacency& adjacency,
                                      NodeId src,
                                      const std::vector<bool>* blocked) {
  return Search(adjacency, src, kInvalidNode, blocked, NoHeuristic).dist;
}

EuclideanRouter::EuclideanRouter(const PlanarGraph& graph)
    : positions_(graph.positions()), adjacency_(EuclideanAdjacency(graph)) {}

Path EuclideanRouter::Route(NodeId src, NodeId dst) const {
  INNET_CHECK(dst < adjacency_.size());
  const geometry::Point& target = positions_[dst];
  SearchState state =
      Search(adjacency_, src, dst, nullptr, [&](NodeId node) {
        return kHeuristicScale * geometry::Distance(positions_[node], target);
      });
  // A PlanarGraph is connected: every destination is reached.
  INNET_CHECK(std::isfinite(state.dist[dst]));
  return PathTo(state, src, dst);
}

std::vector<uint32_t> BfsHops(const WeightedAdjacency& adjacency, NodeId src) {
  INNET_CHECK(src < adjacency.size());
  std::vector<uint32_t> hops(adjacency.size(),
                             std::numeric_limits<uint32_t>::max());
  std::queue<NodeId> queue;
  hops[src] = 0;
  queue.push(src);
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop();
    for (const WeightedArc& arc : adjacency[u]) {
      if (hops[arc.to] != std::numeric_limits<uint32_t>::max()) continue;
      hops[arc.to] = hops[u] + 1;
      queue.push(arc.to);
    }
  }
  return hops;
}

double EstimateAveragePathHops(const WeightedAdjacency& adjacency,
                               size_t num_samples, uint64_t seed) {
  INNET_CHECK(!adjacency.empty());
  util::Rng rng(seed);
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < num_samples; ++i) {
    NodeId src = static_cast<NodeId>(rng.UniformIndex(adjacency.size()));
    std::vector<uint32_t> hops = BfsHops(adjacency, src);
    NodeId dst = static_cast<NodeId>(rng.UniformIndex(adjacency.size()));
    if (hops[dst] == std::numeric_limits<uint32_t>::max()) continue;
    total += hops[dst];
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace innet::graph
