#include "graph/planar_graph.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/connectivity.h"
#include "util/logging.h"

namespace innet::graph {

util::StatusOr<PlanarGraph> PlanarGraph::Create(
    std::vector<geometry::Point> positions,
    std::vector<std::pair<NodeId, NodeId>> edges) {
  PlanarGraph graph;
  util::Status status = graph.Build(std::move(positions), std::move(edges));
  if (!status.ok()) return status;
  return graph;
}

PlanarGraph::PlanarGraph(std::vector<geometry::Point> positions,
                         std::vector<std::pair<NodeId, NodeId>> edges) {
  util::Status status = Build(std::move(positions), std::move(edges));
  if (!status.ok()) INNET_LOG(ERROR) << "PlanarGraph: " << status.ToString();
  INNET_CHECK(status.ok());
}

util::Status PlanarGraph::Build(std::vector<geometry::Point> positions,
                                std::vector<std::pair<NodeId, NodeId>> edges) {
  positions_ = std::move(positions);
  // Non-finite coordinates would also break the angle sort's ordering in
  // BuildAdjacency, so they are rejected first.
  for (const geometry::Point& p : positions_) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y) ||
        std::abs(p.x) > kMaxCoordinate || std::abs(p.y) > kMaxCoordinate) {
      return util::InvalidArgumentError("coordinate not finite or too large");
    }
  }
  if (edges.empty()) return util::InvalidArgumentError("graph has no edges");
  edges_.reserve(edges.size());
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& [u, v] : edges) {
    if (u >= positions_.size() || v >= positions_.size() || u == v) {
      return util::InvalidArgumentError("invalid edge endpoints");
    }
    auto key = std::minmax(u, v);
    if (!seen.insert({key.first, key.second}).second) {
      return util::InvalidArgumentError("duplicate edge");
    }
    EdgeRecord rec;
    rec.u = u;
    rec.v = v;
    edges_.push_back(rec);
  }
  BuildAdjacency();
  // The face and Euler checks cannot stand in for this: a component with
  // crossing roads beside isolated junctions or a second component can
  // still sum to V - E + F = 2. The count reads only the adjacency.
  if (ComponentsWithRemovedEdges(*this, std::vector<bool>(edges_.size()))
          .count != 1) {
    return util::InvalidArgumentError("graph is not connected");
  }
  return BuildFaces();
}

void PlanarGraph::BuildAdjacency() {
  adjacency_.assign(positions_.size(), {});
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    adjacency_[edges_[e].u].push_back({edges_[e].v, e});
    adjacency_[edges_[e].v].push_back({edges_[e].u, e});
  }
  // Rotation system: sort each node's neighbors counter-clockwise by the
  // angle of the outgoing segment.
  for (NodeId n = 0; n < adjacency_.size(); ++n) {
    const geometry::Point& origin = positions_[n];
    std::sort(adjacency_[n].begin(), adjacency_[n].end(),
              [&](const Neighbor& a, const Neighbor& b) {
                double angle_a = geometry::AngleOf(origin, positions_[a.node]);
                double angle_b = geometry::AngleOf(origin, positions_[b.node]);
                if (angle_a != angle_b) return angle_a < angle_b;
                return a.edge < b.edge;
              });
  }
  // Slot of each half-edge within its source's rotation order.
  slot_at_source_.assign(edges_.size() * 2, 0);
  for (NodeId n = 0; n < adjacency_.size(); ++n) {
    for (uint32_t i = 0; i < adjacency_[n].size(); ++i) {
      EdgeId e = adjacency_[n][i].edge;
      uint32_t h = (edges_[e].u == n) ? (e << 1) : ((e << 1) | 1);
      slot_at_source_[h] = i;
    }
  }
}

uint32_t PlanarGraph::NextHalfEdgeInFace(uint32_t h) const {
  // Arrive at b = target(h); the next boundary half-edge leaves b and is the
  // clockwise successor of the reversed half-edge in b's rotation order.
  uint32_t reverse = h ^ 1u;
  NodeId b = HalfEdgeSource(reverse);
  const std::vector<Neighbor>& ring = adjacency_[b];
  uint32_t slot = slot_at_source_[reverse];
  uint32_t degree = static_cast<uint32_t>(ring.size());
  uint32_t next_slot = (slot + degree - 1) % degree;
  EdgeId e = ring[next_slot].edge;
  return (edges_[e].u == b) ? (e << 1) : ((e << 1) | 1);
}

util::Status PlanarGraph::BuildFaces() {
  half_edge_face_.assign(edges_.size() * 2, kInvalidFace);
  faces_.clear();
  for (uint32_t start = 0; start < half_edge_face_.size(); ++start) {
    if (half_edge_face_[start] != kInvalidFace) continue;
    FaceId fid = static_cast<FaceId>(faces_.size());
    FaceRecord face;
    uint32_t h = start;
    do {
      half_edge_face_[h] = fid;
      face.boundary_nodes.push_back(HalfEdgeSource(h));
      face.boundary_edges.push_back(h >> 1);
      h = NextHalfEdgeInFace(h);
      INNET_CHECK(face.boundary_nodes.size() <= 2 * edges_.size());
    } while (h != start);
    // Shoelace over the closed walk (bridges traversed both ways net to 0).
    double twice_area = 0.0;
    size_t len = face.boundary_nodes.size();
    for (size_t i = 0; i < len; ++i) {
      const geometry::Point& a = positions_[face.boundary_nodes[i]];
      const geometry::Point& b =
          positions_[face.boundary_nodes[(i + 1) % len]];
      twice_area += geometry::Cross(a, b);
    }
    face.signed_area = 0.5 * twice_area;
    faces_.push_back(std::move(face));
  }

  // Record left/right faces per edge.
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    edges_[e].left = half_edge_face_[e << 1];
    edges_[e].right = half_edge_face_[(e << 1) | 1];
  }

  // The outer face is the face with the most negative signed area (the
  // clockwise walk around the graph hull). For a connected embedded planar
  // graph there is exactly one face with negative area — except for trees,
  // whose single face nets to zero area.
  outer_face_ = 0;
  for (FaceId f = 1; f < faces_.size(); ++f) {
    if (faces_[f].signed_area < faces_[outer_face_].signed_area) {
      outer_face_ = f;
    }
  }
  if (faces_.size() > 1 && !(faces_[outer_face_].signed_area < 0.0)) {
    return util::InvalidArgumentError(
        "no clockwise outer face (crossing roads)");
  }
  faces_[outer_face_].is_outer = true;

  // Euler's formula for connected planar graphs (connectivity is checked
  // before the faces are built); violated when the embedding is
  // inconsistent (crossing edges).
  if (NumNodes() - NumEdges() + NumFaces() != 2) {
    return util::InvalidArgumentError(
        "embedding violates Euler's formula (crossing roads)");
  }
  return util::Status::Ok();
}

EdgeId PlanarGraph::EdgeBetween(NodeId u, NodeId v) const {
  // Scan the lower-degree endpoint; planar graphs have small average degree.
  if (adjacency_[u].size() > adjacency_[v].size()) std::swap(u, v);
  for (const Neighbor& nb : adjacency_[u]) {
    if (nb.node == v) return nb.edge;
  }
  return kInvalidEdge;
}

double PlanarGraph::EdgeLength(EdgeId e) const {
  return geometry::Distance(positions_[edges_[e].u], positions_[edges_[e].v]);
}

geometry::Polygon PlanarGraph::FacePolygon(FaceId f) const {
  std::vector<geometry::Point> ring;
  ring.reserve(faces_[f].boundary_nodes.size());
  for (NodeId n : faces_[f].boundary_nodes) ring.push_back(positions_[n]);
  return geometry::Polygon(std::move(ring));
}

std::vector<FaceId> PlanarGraph::FacesAroundNode(NodeId n) const {
  std::vector<FaceId> around;
  around.reserve(adjacency_[n].size());
  for (const Neighbor& nb : adjacency_[n]) {
    EdgeId e = nb.edge;
    uint32_t h = (edges_[e].u == n) ? (e << 1) : ((e << 1) | 1);
    around.push_back(half_edge_face_[h]);
  }
  return around;
}

}  // namespace innet::graph
