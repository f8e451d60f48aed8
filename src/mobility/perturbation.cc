#include "mobility/perturbation.h"

#include <algorithm>
#include <queue>

#include "graph/shortest_path.h"
#include "util/logging.h"

namespace innet::mobility {

namespace {

// Junctions within `max_hops` of `center`, grouped by hop distance.
std::vector<std::vector<graph::NodeId>> HopRings(
    const graph::PlanarGraph& graph, graph::NodeId center, int max_hops) {
  std::vector<std::vector<graph::NodeId>> rings(max_hops + 1);
  std::vector<int> dist(graph.NumNodes(), -1);
  std::queue<graph::NodeId> queue;
  dist[center] = 0;
  rings[0].push_back(center);
  queue.push(center);
  while (!queue.empty()) {
    graph::NodeId u = queue.front();
    queue.pop();
    if (dist[u] >= max_hops) continue;
    for (const graph::Neighbor& nb : graph.NeighborsOf(u)) {
      if (dist[nb.node] >= 0) continue;
      dist[nb.node] = dist[u] + 1;
      rings[dist[nb.node]].push_back(nb.node);
      queue.push(nb.node);
    }
  }
  return rings;
}

graph::NodeId PerturbAnchor(const graph::PlanarGraph& graph,
                            graph::NodeId anchor,
                            const PerturbationOptions& options,
                            util::Rng& rng) {
  if (options.max_hops <= 0) return anchor;
  std::vector<std::vector<graph::NodeId>> rings =
      HopRings(graph, anchor, options.max_hops);
  // Geometric decay over non-empty rings.
  std::vector<double> ring_weights;
  double w = 1.0;
  for (const auto& ring : rings) {
    ring_weights.push_back(ring.empty() ? 0.0 : w);
    w *= options.alpha;
  }
  size_t ring = rng.WeightedIndex(ring_weights);
  return rings[ring][rng.UniformIndex(rings[ring].size())];
}

}  // namespace

std::vector<Trajectory> PerturbTrajectories(
    const graph::PlanarGraph& graph,
    const std::vector<Trajectory>& trajectories,
    const PerturbationOptions& options, util::Rng& rng) {
  INNET_CHECK(options.anchor_stride >= 1);
  INNET_CHECK(options.alpha > 0.0 && options.alpha <= 1.0);
  graph::EuclideanRouter router(graph);

  std::vector<Trajectory> perturbed;
  perturbed.reserve(trajectories.size());
  for (const Trajectory& trajectory : trajectories) {
    if (trajectory.nodes.size() < 2) continue;

    // Anchor subsampling (always keep the endpoints), then perturbation.
    std::vector<graph::NodeId> anchors;
    for (size_t i = 0; i < trajectory.nodes.size();
         i += options.anchor_stride) {
      anchors.push_back(
          PerturbAnchor(graph, trajectory.nodes[i], options, rng));
    }
    graph::NodeId last = PerturbAnchor(graph, trajectory.nodes.back(),
                                       options, rng);
    if (anchors.empty() || anchors.back() != last) anchors.push_back(last);

    // Reconnect through shortest paths.
    std::vector<graph::NodeId> nodes = {anchors[0]};
    for (size_t i = 0; i + 1 < anchors.size(); ++i) {
      if (anchors[i] == anchors[i + 1]) continue;
      graph::Path leg = router.Route(anchors[i], anchors[i + 1]);
      nodes.insert(nodes.end(), leg.nodes.begin() + 1, leg.nodes.end());
    }
    if (nodes.size() < 2) continue;

    // Re-time along the new path, preserving the trip's time span.
    double start = trajectory.times.front();
    double span = std::max(trajectory.times.back() - start, 1e-3);
    double total_length = 0.0;
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      total_length += geometry::Distance(graph.Position(nodes[i]),
                                         graph.Position(nodes[i + 1]));
    }
    total_length = std::max(total_length, 1e-9);
    Trajectory out;
    out.nodes = std::move(nodes);
    out.times.resize(out.nodes.size());
    out.times[0] = start;
    double walked = 0.0;
    for (size_t i = 0; i + 1 < out.nodes.size(); ++i) {
      walked += geometry::Distance(graph.Position(out.nodes[i]),
                                   graph.Position(out.nodes[i + 1]));
      out.times[i + 1] = std::max(
          start + span * walked / total_length, out.times[i] + 1e-4);
    }
    perturbed.push_back(std::move(out));
  }
  return perturbed;
}

}  // namespace innet::mobility
