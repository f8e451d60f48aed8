// Region count evaluation: Theorems 4.2 (static) and 4.3 (transient) over an
// explicit boundary-edge list and any EdgeCountStore.
//
// The query processor reduces every region (exact junction set on G, or
// union of sampled faces on G̃) to a list of boundary edges with an
// inward-direction flag; the theorems then integrate the tracking forms
// along that boundary.
#ifndef INNET_FORMS_REGION_COUNT_H_
#define INNET_FORMS_REGION_COUNT_H_

#include <vector>

#include "forms/edge_count_store.h"
#include "graph/planar_graph.h"

namespace innet::forms {

/// One boundary edge of a region. `inward_is_forward` is true when the
/// canonical u -> v traversal of the road crosses INTO the region.
struct BoundaryEdge {
  graph::EdgeId edge = graph::kInvalidEdge;
  bool inward_is_forward = true;
};

/// Closed interval of count values. Degraded-mode answers (docs/FAULTS.md)
/// report one of these instead of a point estimate: the true count is
/// claimed to lie in [lo, hi]. Fault-free answers carry the degenerate
/// interval [estimate, estimate].
struct CountInterval {
  double lo = 0.0;
  double hi = 0.0;

  static CountInterval Point(double value) { return {value, value}; }

  bool Contains(double value) const { return lo <= value && value <= hi; }
  double Width() const { return hi - lo; }
  double Mid() const { return 0.5 * (lo + hi); }

  /// Symmetric widening by `slack >= 0` on each side.
  CountInterval Widened(double slack) const {
    return {lo - slack, hi + slack};
  }

  /// Clamps the lower end at `floor` (static occupancy counts are >= 0).
  CountInterval ClampedBelow(double floor) const {
    return {lo < floor ? floor : lo, hi < floor ? floor : hi};
  }
};

/// Builds the boundary-edge list of the junction-cell union flagged by
/// `in_region` (indexed by NodeId).
std::vector<BoundaryEdge> RegionBoundary(const graph::PlanarGraph& graph,
                                         const std::vector<bool>& in_region);

/// Theorem 4.2 — static object count: the number of objects inside the
/// region at time `t` (net inflow from -inf to t), evaluated along
/// `boundary`.
double EvaluateStaticCount(const EdgeCountStore& store,
                           const std::vector<BoundaryEdge>& boundary,
                           double t);

/// Theorem 4.3 — transient object count: the net change of the region's
/// population over (t0, t1]. Negative values mean net outflow.
double EvaluateTransientCount(const EdgeCountStore& store,
                              const std::vector<BoundaryEdge>& boundary,
                              double t0, double t1);

/// Boundary activity: crossings in BOTH directions recorded on `boundary`
/// up to time t, regardless of which way they cross (degraded answering
/// widens intervals by a multiple of it, docs/FAULTS.md §3).
double EvaluateBoundaryActivity(const EdgeCountStore& store,
                                const std::vector<BoundaryEdge>& boundary,
                                double t);

/// Boundary activity over (t0, t1].
double EvaluateBoundaryActivity(const EdgeCountStore& store,
                                const std::vector<BoundaryEdge>& boundary,
                                double t0, double t1);

}  // namespace innet::forms

#endif  // INNET_FORMS_REGION_COUNT_H_
