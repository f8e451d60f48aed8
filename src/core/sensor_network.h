// SensorNetwork: the mobility graph, its dual sensing graph, the ingested
// crossing-event stream, and the exact (unsampled) reference store used both
// as the paper's baseline comparator [34] and as the ground truth η of
// §5.1.4.
//
// ⋆v_ext. Objects enter the domain from the infinity node (Fig. 8a) through
// gateway junctions (junctions on the outer face). Each gateway carries one
// VIRTUAL sensing edge — the dual of its (⋆v_ext, gateway) connection —
// with edge ids appended after the real sensing edges. A trajectory starting
// at a gateway produces an entry crossing on that virtual edge, and any
// region containing a gateway cell includes the virtual edge in its
// boundary. This makes differential-form counts exact for every region
// (Thm 4.1-4.3) while adding no cost to interior queries.
#ifndef INNET_CORE_SENSOR_NETWORK_H_
#define INNET_CORE_SENSOR_NETWORK_H_

#include <vector>

#include "forms/region_count.h"
#include "forms/tracking_form.h"
#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "graph/dual_graph.h"
#include "graph/planar_graph.h"
#include "mobility/trajectory.h"

namespace innet::core {

/// Immutable network structure plus the ingested event history.
class SensorNetwork {
 public:
  /// Takes ownership of the mobility graph and derives the sensing graph.
  explicit SensorNetwork(graph::PlanarGraph mobility);

  SensorNetwork(const SensorNetwork&) = delete;
  SensorNetwork& operator=(const SensorNetwork&) = delete;

  const graph::PlanarGraph& mobility() const { return mobility_; }
  const graph::DualGraph& sensing() const { return sensing_; }

  /// Physical sensors (dual nodes except the ext node).
  size_t NumSensors() const { return sensing_.NumNodes() - 1; }

  /// Gateway junctions (outer-face junctions with a ⋆v_ext virtual edge).
  const std::vector<graph::NodeId>& gateways() const { return gateways_; }
  const std::vector<bool>& gateway_mask() const { return gateway_mask_; }

  /// Edge-id space including the virtual ⋆v_ext edges; stores must be sized
  /// with this, not mobility().NumEdges().
  size_t TotalEdgeSpace() const {
    return mobility_.NumEdges() + gateways_.size();
  }

  bool IsVirtualEdge(graph::EdgeId e) const {
    return e >= mobility_.NumEdges();
  }

  /// Virtual edge id of a gateway junction (kInvalidEdge for non-gateways).
  graph::EdgeId VirtualEdgeOf(graph::NodeId junction) const {
    return virtual_edge_of_[junction];
  }

  /// The single physical sensor holding edge `e`'s tracking form: the dual
  /// node on its left side, falling back to the right side when the left is
  /// the ext node. Virtual ⋆v_ext edges are server-side bookkeeping with no
  /// owning sensor — they return kInvalidNode and never fail. The fault
  /// layer (src/faults) and degraded-mode answering share this mapping.
  graph::NodeId EdgeOwner(graph::EdgeId e) const {
    if (IsVirtualEdge(e)) return graph::kInvalidNode;
    graph::FaceId left = mobility_.Edge(e).left;
    return left != sensing_.ExtNode() ? left : mobility_.Edge(e).right;
  }

  /// Appends the ⋆v_ext virtual boundary edges of every in-region gateway
  /// (inward = forward by convention) to `boundary`.
  void AppendVirtualBoundary(const std::vector<bool>& in_region,
                             std::vector<forms::BoundaryEdge>* boundary) const;

  /// Full region boundary (real + virtual edges) of a junction-cell union.
  std::vector<forms::BoundaryEdge> RegionBoundaryWithVirtual(
      const std::vector<bool>& in_region) const;

  /// Extracts, time-sorts, and ingests the crossing events of
  /// `trajectories` into the reference store. May be called once.
  void IngestTrajectories(const std::vector<mobility::Trajectory>& trajectories);

  /// The time-sorted crossing-event stream (for replays into sampled
  /// stores).
  const std::vector<mobility::CrossingEvent>& events() const {
    return events_;
  }

  /// Exact tracking forms over every sensing edge.
  const forms::TrackingForm& reference_store() const { return reference_; }

  /// Bounding box of the mobility domain.
  const geometry::Rect& DomainBounds() const { return domain_bounds_; }
  double DomainArea() const { return domain_bounds_.Area(); }

  /// Junctions whose sensing cell (dual face) is fully contained in `rect` —
  /// the face-union region Q_R of §5.1.5 — in ascending id order. A cell
  /// counts by its bounding box, under `rect.Contains(box)`'s exact
  /// ordered compares: a NaN coordinate matches nothing and an inverted
  /// rect nothing of positive extent. Cells of junctions bordering the
  /// outer face reach the ext node's far-away position, so only a rect
  /// reaching past it holds them. One SIMD scan over every cell box
  /// (util::simd::BoxesInside); no index, no sort. Scans into a retained
  /// per-thread buffer, so once that has grown it allocates the returned
  /// vector and nothing else.
  std::vector<graph::NodeId> JunctionsInRect(const geometry::Rect& rect) const;

  /// Out-parameter variant for serving loops: replaces `*out` with the same
  /// list, reusing its capacity, so once `*out` has grown to the largest
  /// answer it makes no allocation.
  void JunctionsInRect(const geometry::Rect& rect,
                       std::vector<graph::NodeId>* out) const;

  /// Arbitrary-shape query regions (§4.6: "supports the query region of any
  /// arbitrary shape"): junctions whose sensing cell is fully contained in
  /// the simple polygon `region`, ascending. Candidates are the cells inside
  /// the polygon's bounding box (the JunctionsInRect scan); each is then
  /// tested exactly against the polygon.
  std::vector<graph::NodeId> JunctionsInPolygon(
      const geometry::Polygon& region) const;

  /// Junction membership mask helper.
  std::vector<bool> JunctionMask(
      const std::vector<graph::NodeId>& junctions) const;

  /// Ground truth η: exact static count (occupancy at t) of the junction-cell
  /// union, from the unsampled reference store.
  double GroundTruthStatic(const std::vector<graph::NodeId>& junctions,
                           double t) const;

  /// Ground truth η for the transient count over (t0, t1].
  double GroundTruthTransient(const std::vector<graph::NodeId>& junctions,
                              double t0, double t1) const;

 private:
  graph::PlanarGraph mobility_;
  graph::DualGraph sensing_;
  std::vector<graph::NodeId> gateways_;
  std::vector<bool> gateway_mask_;
  std::vector<graph::EdgeId> virtual_edge_of_;
  forms::TrackingForm reference_;
  std::vector<mobility::CrossingEvent> events_;
  geometry::Rect domain_bounds_;
  // Bounding box of each junction's sensing cell, as four columns in
  // junction-id order (util::simd::BoxColumns). Cells touching the ext node
  // stretch to its far-away position, the intended "unbounded" semantics.
  std::vector<double> cell_min_x_;
  std::vector<double> cell_min_y_;
  std::vector<double> cell_max_x_;
  std::vector<double> cell_max_y_;
};

}  // namespace innet::core

#endif  // INNET_CORE_SENSOR_NETWORK_H_
