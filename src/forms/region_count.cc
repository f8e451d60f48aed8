#include "forms/region_count.h"

#include "util/logging.h"

namespace innet::forms {

std::vector<BoundaryEdge> RegionBoundary(const graph::PlanarGraph& graph,
                                         const std::vector<bool>& in_region) {
  INNET_CHECK(in_region.size() == graph.NumNodes());
  std::vector<BoundaryEdge> boundary;
  for (graph::EdgeId e = 0; e < graph.NumEdges(); ++e) {
    const graph::EdgeRecord& rec = graph.Edge(e);
    bool u_in = in_region[rec.u];
    bool v_in = in_region[rec.v];
    if (u_in == v_in) continue;
    boundary.push_back({e, /*inward_is_forward=*/v_in});
  }
  return boundary;
}

double EvaluateStaticCount(const EdgeCountStore& store,
                           const std::vector<BoundaryEdge>& boundary,
                           double t) {
  double total = 0.0;
  for (const BoundaryEdge& b : boundary) {
    total += store.CountUpTo(b.edge, b.inward_is_forward, t);
    total -= store.CountUpTo(b.edge, !b.inward_is_forward, t);
  }
  return total;
}

double EvaluateTransientCount(const EdgeCountStore& store,
                              const std::vector<BoundaryEdge>& boundary,
                              double t0, double t1) {
  double total = 0.0;
  for (const BoundaryEdge& b : boundary) {
    total += store.CountInRange(b.edge, b.inward_is_forward, t0, t1);
    total -= store.CountInRange(b.edge, !b.inward_is_forward, t0, t1);
  }
  return total;
}

double EvaluateBoundaryActivity(const EdgeCountStore& store,
                                const std::vector<BoundaryEdge>& boundary,
                                double t) {
  double total = 0.0;
  for (const BoundaryEdge& b : boundary) {
    total += store.CountUpTo(b.edge, true, t) +
             store.CountUpTo(b.edge, false, t);
  }
  return total;
}

double EvaluateBoundaryActivity(const EdgeCountStore& store,
                                const std::vector<BoundaryEdge>& boundary,
                                double t0, double t1) {
  double total = 0.0;
  for (const BoundaryEdge& b : boundary) {
    total += store.CountInRange(b.edge, true, t0, t1) +
             store.CountInRange(b.edge, false, t0, t1);
  }
  return total;
}

}  // namespace innet::forms
