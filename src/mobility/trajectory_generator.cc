#include "mobility/trajectory_generator.h"

#include <algorithm>

#include "graph/shortest_path.h"
#include "spatial/kdtree.h"
#include "util/logging.h"

namespace innet::mobility {

std::vector<Trajectory> GenerateTrajectories(const graph::PlanarGraph& graph,
                                             const TrajectoryOptions& options,
                                             util::Rng& rng) {
  INNET_CHECK(graph.NumNodes() >= 2);
  graph::EuclideanRouter router(graph);

  // Hotspots and their neighborhoods.
  spatial::KdTree junction_index(graph.positions());
  std::vector<std::vector<size_t>> hotspot_pools;
  for (size_t h = 0; h < options.num_hotspots; ++h) {
    graph::NodeId center =
        static_cast<graph::NodeId>(rng.UniformIndex(graph.NumNodes()));
    hotspot_pools.push_back(junction_index.KNearest(
        graph.Position(center),
        std::min(options.hotspot_spread, graph.NumNodes())));
  }

  auto draw_endpoint = [&]() -> graph::NodeId {
    if (!hotspot_pools.empty() && rng.Bernoulli(options.hotspot_bias)) {
      const std::vector<size_t>& pool =
          hotspot_pools[rng.UniformIndex(hotspot_pools.size())];
      return static_cast<graph::NodeId>(pool[rng.UniformIndex(pool.size())]);
    }
    return static_cast<graph::NodeId>(rng.UniformIndex(graph.NumNodes()));
  };

  // Gateway entry machinery (⋆v_ext): nearest-gateway lookup for prepending
  // the drive-in leg.
  std::vector<graph::NodeId> gateways = GatewayJunctions(graph);
  std::vector<geometry::Point> gateway_positions;
  gateway_positions.reserve(gateways.size());
  for (graph::NodeId g : gateways) {
    gateway_positions.push_back(graph.Position(g));
  }
  spatial::KdTree gateway_index(gateway_positions);

  std::vector<Trajectory> trajectories;
  trajectories.reserve(options.num_trajectories);
  while (trajectories.size() < options.num_trajectories) {
    graph::NodeId origin = draw_endpoint();
    graph::NodeId destination = draw_endpoint();
    if (origin == destination) continue;
    // Routes always exist (a PlanarGraph is connected), so no draw is ever
    // discarded after this point.
    graph::Path path = router.Route(origin, destination);

    double speed = std::max(1.0, rng.Normal(options.speed_mean,
                                            options.speed_stddev));
    std::vector<graph::NodeId> nodes;
    std::vector<graph::EdgeId> edges;
    if (options.enter_from_boundary) {
      // Drive in from the gateway nearest to the trip origin.
      graph::NodeId gateway =
          gateways[gateway_index.NearestNeighbor(graph.Position(origin))];
      if (gateway != origin) {
        graph::Path entry = router.Route(gateway, origin);
        nodes = std::move(entry.nodes);
        edges = std::move(entry.edges);
      }
    }
    if (nodes.empty()) {
      nodes = std::move(path.nodes);
      edges = std::move(path.edges);
    } else {
      // Concatenate entry leg + trip (entry ends at the trip origin).
      nodes.insert(nodes.end(), path.nodes.begin() + 1, path.nodes.end());
      edges.insert(edges.end(), path.edges.begin(), path.edges.end());
    }

    Trajectory trajectory;
    trajectory.nodes = std::move(nodes);
    trajectory.times.resize(trajectory.nodes.size());
    trajectory.times[0] = rng.Uniform(0.0, 0.8 * options.horizon);
    for (size_t i = 0; i + 1 < trajectory.nodes.size(); ++i) {
      double leg = graph.EdgeLength(edges[i]) / speed;
      trajectory.times[i + 1] = trajectory.times[i] + std::max(leg, 1e-3);
    }
    trajectories.push_back(std::move(trajectory));
  }
  return trajectories;
}

}  // namespace innet::mobility
