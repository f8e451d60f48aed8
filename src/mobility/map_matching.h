// Map matching: GPS traces -> mobility-graph trajectories (§5.1.3: "we
// map-match the trajectories to the road network by mapping each trajectory
// location to the nearest node and connecting them via the shortest path").
#ifndef INNET_MOBILITY_MAP_MATCHING_H_
#define INNET_MOBILITY_MAP_MATCHING_H_

#include <vector>

#include "geometry/point.h"
#include "graph/planar_graph.h"
#include "graph/shortest_path.h"
#include "mobility/trajectory.h"
#include "spatial/kdtree.h"
#include "util/rng.h"

namespace innet::mobility {

/// A raw GPS trace: sampled positions with strictly increasing timestamps.
struct GpsTrace {
  std::vector<geometry::Point> points;
  std::vector<double> times;
};

/// Snaps a GPS trace to the mobility graph. Each sample maps to its nearest
/// junction; consecutive distinct junctions are connected by the shortest
/// path, with arrival times interpolated along the path proportionally to
/// edge length. Returns an empty trajectory for traces matching fewer than
/// two distinct junctions. `router` and `junction_index` must be built from
/// `graph` (one of each serves every trace).
Trajectory MapMatch(const graph::PlanarGraph& graph,
                    const graph::EuclideanRouter& router,
                    const spatial::KdTree& junction_index,
                    const GpsTrace& trace);

/// Synthesizes a noisy GPS trace from a ground-truth trajectory: samples
/// positions every `sample_interval` seconds along the path and perturbs
/// them with Gaussian noise of the given standard deviation. Used to test
/// the map-matching round trip and by the examples.
GpsTrace SynthesizeGpsTrace(const graph::PlanarGraph& graph,
                            const Trajectory& trajectory,
                            double sample_interval, double noise_stddev,
                            util::Rng& rng);

}  // namespace innet::mobility

#endif  // INNET_MOBILITY_MAP_MATCHING_H_
