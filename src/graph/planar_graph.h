// Embedded planar graph with combinatorial face extraction.
//
// This is the representation behind both domains of §3.2: the mobility graph
// `⋆G` is stored directly as a PlanarGraph; the sensing graph `G` (its dual)
// is derived from the faces computed here (see graph/dual.h).
//
// Faces are traced from the rotation system induced by node coordinates:
// interior faces come out counter-clockwise, the unique outer face clockwise
// (negative signed area). Every directed half-edge belongs to exactly one
// face, giving the left/right face of each undirected edge.
#ifndef INNET_GRAPH_PLANAR_GRAPH_H_
#define INNET_GRAPH_PLANAR_GRAPH_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "geometry/polygon.h"
#include "util/status.h"

namespace innet::graph {

using NodeId = uint32_t;
using EdgeId = uint32_t;
using FaceId = uint32_t;

inline constexpr FaceId kInvalidFace = std::numeric_limits<FaceId>::max();
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// An undirected edge with the faces on either side. `left` is the face on
/// the left when traveling u -> v.
struct EdgeRecord {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  FaceId left = kInvalidFace;
  FaceId right = kInvalidFace;

  /// The endpoint other than `n`. Requires n to be an endpoint.
  NodeId Other(NodeId n) const { return n == u ? v : u; }
};

/// A face traced from the rotation system. `boundary_nodes[i]` is the source
/// of `boundary_edges[i]`; the walk is closed. Bridges appear twice (once per
/// direction).
struct FaceRecord {
  std::vector<NodeId> boundary_nodes;
  std::vector<EdgeId> boundary_edges;
  double signed_area = 0.0;
  bool is_outer = false;
};

/// A neighbor entry in a node's rotation order.
struct Neighbor {
  NodeId node;
  EdgeId edge;
};

/// Connected, simple, embedded planar graph. Nodes carry finite coordinates;
/// edges are straight segments that must not cross. Crossings are caught
/// where they make the rotation system non-planar (the outer-face and Euler
/// checks). A crossing that leaves it planar, such as a bowtie
/// quadrilateral, is not detected; generated inputs exclude it by
/// construction (Delaunay subsets, planarization).
class PlanarGraph {
 public:
  /// Builds the graph and its rotation system, or says why the input is not
  /// a valid embedding: a coordinate that is not finite or exceeds
  /// kMaxCoordinate in magnitude, no edges, an edge that is out of range,
  /// a loop or a repeat, a disconnected graph, or a rotation system that
  /// fails the outer-face or Euler checks. Errors are InvalidArgument.
  static util::StatusOr<PlanarGraph> Create(
      std::vector<geometry::Point> positions,
      std::vector<std::pair<NodeId, NodeId>> edges);

  /// Same construction as Create; CHECK-fails on input it rejects. For
  /// inputs valid by construction (generators, planarization output).
  PlanarGraph(std::vector<geometry::Point> positions,
              std::vector<std::pair<NodeId, NodeId>> edges);

  /// Bound on coordinate magnitude: every distance, area and path cost
  /// derived from the positions then stays finite.
  static constexpr double kMaxCoordinate = 1e100;

  PlanarGraph(const PlanarGraph&) = default;
  PlanarGraph(PlanarGraph&&) = default;
  PlanarGraph& operator=(const PlanarGraph&) = default;
  PlanarGraph& operator=(PlanarGraph&&) = default;

  size_t NumNodes() const { return positions_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  size_t NumFaces() const { return faces_.size(); }

  const geometry::Point& Position(NodeId n) const { return positions_[n]; }
  const std::vector<geometry::Point>& positions() const { return positions_; }

  const EdgeRecord& Edge(EdgeId e) const { return edges_[e]; }
  const std::vector<EdgeRecord>& edges() const { return edges_; }

  const FaceRecord& Face(FaceId f) const { return faces_[f]; }
  const std::vector<FaceRecord>& faces() const { return faces_; }

  /// The unique face with negative signed area.
  FaceId OuterFace() const { return outer_face_; }

  /// Euclidean length of edge e.
  double EdgeLength(EdgeId e) const;

  /// Neighbors of n in counter-clockwise rotation order.
  const std::vector<Neighbor>& NeighborsOf(NodeId n) const {
    return adjacency_[n];
  }

  size_t Degree(NodeId n) const { return adjacency_[n].size(); }

  /// Edge id connecting u and v, or kInvalidEdge when not adjacent.
  EdgeId EdgeBetween(NodeId u, NodeId v) const;

  /// Boundary polygon of face f (vertex ring along the traced walk).
  geometry::Polygon FacePolygon(FaceId f) const;

  /// The faces incident to node n, in rotation order (one per incident
  /// half-edge leaving n: the face to the left of that half-edge). These are
  /// the boundary faces of the dual face around n.
  std::vector<FaceId> FacesAroundNode(NodeId n) const;

  /// Directed half-edge helpers. Half-edge 2e is u->v of edge e, 2e+1 is
  /// v->u.
  NodeId HalfEdgeSource(uint32_t h) const {
    const EdgeRecord& e = edges_[h >> 1];
    return (h & 1) == 0 ? e.u : e.v;
  }
  NodeId HalfEdgeTarget(uint32_t h) const {
    const EdgeRecord& e = edges_[h >> 1];
    return (h & 1) == 0 ? e.v : e.u;
  }

  /// Face to the left of directed half-edge h.
  FaceId FaceOfHalfEdge(uint32_t h) const { return half_edge_face_[h]; }

 private:
  PlanarGraph() = default;

  // The one construction path behind Create and the CHECKing constructor.
  util::Status Build(std::vector<geometry::Point> positions,
                     std::vector<std::pair<NodeId, NodeId>> edges);
  void BuildAdjacency();
  util::Status BuildFaces();
  uint32_t NextHalfEdgeInFace(uint32_t h) const;

  std::vector<geometry::Point> positions_;
  std::vector<EdgeRecord> edges_;
  std::vector<std::vector<Neighbor>> adjacency_;  // CCW rotation order.
  // Position of half-edge h within adjacency_[source(h)].
  std::vector<uint32_t> slot_at_source_;
  std::vector<FaceId> half_edge_face_;
  std::vector<FaceRecord> faces_;
  FaceId outer_face_ = kInvalidFace;
};

}  // namespace innet::graph

#endif  // INNET_GRAPH_PLANAR_GRAPH_H_
