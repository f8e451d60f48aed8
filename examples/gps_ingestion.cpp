// GPS ingestion pipeline: raw noisy GPS traces -> map matching (§5.1.3) ->
// crossing events -> tracking forms -> queries. This is the preprocessing
// path used for datasets like T-Drive/Geolife.
#include <cstdio>

#include "core/framework.h"
#include "core/workload.h"
#include "graph/shortest_path.h"
#include "mobility/map_matching.h"
#include "mobility/road_network.h"
#include "mobility/trajectory_generator.h"
#include "spatial/kdtree.h"
#include "util/stats.h"

int main() {
  using namespace innet;

  // Build just the road network; trajectories will come from "GPS".
  util::Rng rng(55);
  mobility::RoadNetworkOptions road;
  road.num_junctions = 900;
  graph::PlanarGraph mobility_graph = mobility::GenerateRoadNetwork(road, rng);
  graph::EuclideanRouter router(mobility_graph);
  spatial::KdTree junction_index(mobility_graph.positions());

  // Simulate a fleet logging noisy GPS fixes: ground-truth trips are driven,
  // sampled every 15 s with 40 m standard deviation noise.
  mobility::TrajectoryOptions traffic;
  traffic.num_trajectories = 1500;
  traffic.horizon = 4.0 * 3600.0;
  util::Rng trip_rng = rng.Fork();
  std::vector<mobility::Trajectory> truth_trips =
      mobility::GenerateTrajectories(mobility_graph, traffic, trip_rng);

  util::Rng noise_rng = rng.Fork();
  std::vector<mobility::GpsTrace> traces;
  traces.reserve(truth_trips.size());
  for (const mobility::Trajectory& trip : truth_trips) {
    traces.push_back(mobility::SynthesizeGpsTrace(
        mobility_graph, trip, /*sample_interval=*/15.0,
        /*noise_stddev=*/40.0, noise_rng));
  }
  std::printf("synthesized %zu GPS traces\n", traces.size());

  // Map-match every trace back onto the network.
  std::vector<mobility::Trajectory> matched;
  size_t dropped = 0;
  util::Accumulator length_ratio;
  for (size_t i = 0; i < traces.size(); ++i) {
    mobility::Trajectory t = mobility::MapMatch(mobility_graph, router,
                                                junction_index, traces[i]);
    if (t.nodes.size() < 2) {
      ++dropped;
      continue;
    }
    length_ratio.Add(static_cast<double>(t.nodes.size()) /
                     static_cast<double>(truth_trips[i].nodes.size()));
    matched.push_back(std::move(t));
  }
  std::printf(
      "map-matched %zu traces (%zu dropped); matched/true path length "
      "ratio: median %.2f\n\n",
      matched.size(), dropped, length_ratio.Summarize().median);

  // Ingest the matched trajectories and query as usual. Map-matched GPS
  // fleets start mid-network (no ⋆v_ext entry), so counts are exact for
  // regions the objects cross into and lower bounds elsewhere.
  core::SensorNetwork network(std::move(mobility_graph));
  network.IngestTrajectories(matched);

  core::UnsampledQueryProcessor processor(network);
  core::WorkloadOptions workload;
  workload.area_fraction = 0.06;
  workload.horizon = traffic.horizon;
  util::Rng qrng = rng.Fork();
  std::vector<core::RangeQuery> queries =
      core::GenerateWorkload(network, workload, 8, qrng);

  std::printf("%-10s %-10s %-10s\n", "static", "transient", "nodes");
  for (const core::RangeQuery& q : queries) {
    core::QueryAnswer st = processor.Answer(q, core::CountKind::kStatic);
    core::QueryAnswer tr = processor.Answer(q, core::CountKind::kTransient);
    std::printf("%-10.0f %-+10.0f %-10zu\n", st.estimate, tr.estimate,
                st.nodes_accessed);
  }
  return 0;
}
