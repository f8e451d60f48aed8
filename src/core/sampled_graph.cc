#include "core/sampled_graph.h"

#include <algorithm>
#include <set>

#include "geometry/delaunay.h"
#include "graph/connectivity.h"
#include "graph/shortest_path.h"
#include "spatial/kdtree.h"
#include "util/logging.h"

namespace innet::core {

namespace {

// Logical sensor-to-sensor links before path materialization.
std::vector<std::pair<size_t, size_t>> ConnectSensors(
    const std::vector<geometry::Point>& positions,
    const SampledGraphOptions& options) {
  std::vector<std::pair<size_t, size_t>> links;
  if (positions.size() < 2) return links;
  if (options.connectivity == Connectivity::kTriangulation &&
      positions.size() >= 3) {
    geometry::Triangulation tri = geometry::DelaunayTriangulate(positions);
    for (const auto& [a, b] : tri.Edges()) links.emplace_back(a, b);
    if (!links.empty()) return links;
    // Fall through to k-NN for degenerate (collinear) inputs.
  }
  spatial::KdTree index(positions);
  std::set<std::pair<size_t, size_t>> unique;
  size_t k = std::max<size_t>(1, options.knn_k);
  for (size_t i = 0; i < positions.size(); ++i) {
    // k+1 because the query point itself is its own nearest neighbor.
    std::vector<size_t> nearest = index.KNearest(positions[i], k + 1);
    for (size_t j : nearest) {
      if (j == i) continue;
      unique.insert(std::minmax(i, j));
    }
  }
  links.assign(unique.begin(), unique.end());
  return links;
}

}  // namespace

SampledGraph SampledGraph::FromSensors(const SensorNetwork& network,
                                       std::vector<graph::NodeId> sensors,
                                       const SampledGraphOptions& options) {
  const graph::DualGraph& dual = network.sensing();
  std::vector<geometry::Point> positions;
  positions.reserve(sensors.size());
  for (graph::NodeId s : sensors) {
    INNET_CHECK(s < dual.NumNodes() && s != dual.ExtNode());
    positions.push_back(dual.Position(s));
  }

  std::vector<std::pair<size_t, size_t>> links =
      ConnectSensors(positions, options);

  // Materialize each logical link as the shortest sensing-graph path
  // between the two sensors, never routing through the ext node.
  std::vector<bool> blocked(dual.NumNodes(), false);
  blocked[dual.ExtNode()] = true;
  std::vector<bool> monitored(network.mobility().NumEdges(), false);
  for (const auto& [ai, bi] : links) {
    std::optional<graph::Path> path = graph::ShortestPath(
        dual.adjacency(), sensors[ai], sensors[bi], &blocked);
    if (!path.has_value()) continue;  // Sensing graph split by blocking ext.
    for (graph::EdgeId via : path->edges) monitored[via] = true;
  }
  return SampledGraph(network, std::move(sensors), std::move(monitored));
}

SampledGraph SampledGraph::FromMonitoredEdges(
    const SensorNetwork& network, const std::vector<graph::EdgeId>& monitored,
    std::vector<graph::NodeId> comm_sensors) {
  std::vector<bool> mask(network.mobility().NumEdges(), false);
  for (graph::EdgeId e : monitored) {
    INNET_CHECK(e < mask.size());
    mask[e] = true;
  }
  return SampledGraph(network, std::move(comm_sensors), std::move(mask));
}

SampledGraph::SampledGraph(const SensorNetwork& network,
                           std::vector<graph::NodeId> comm_sensors,
                           std::vector<bool> monitored_mask)
    : network_(&network),
      comm_sensors_(std::move(comm_sensors)),
      monitored_mask_(std::move(monitored_mask)) {
  for (graph::EdgeId e = 0; e < monitored_mask_.size(); ++e) {
    if (monitored_mask_[e]) monitored_edges_.push_back(e);
  }
  ComputeFaces();
  ComputeStats();
}

void SampledGraph::ComputeFaces() {
  graph::ComponentLabels labels = graph::ComponentsWithRemovedEdges(
      network_->mobility(), monitored_mask_);
  face_of_junction_ = std::move(labels.label);
  face_sizes_.assign(labels.count, 0);
  for (uint32_t f : face_of_junction_) ++face_sizes_[f];

  // Boundary table, filled in two passes over the same entries: count each
  // face's row, then place them. Monitored edges go first, ascending, then
  // the gateways' virtual edges, so every row is ascending by edge id. A
  // dangling edge (both ends in one face) never bounds a region and gets no
  // entry.
  const graph::PlanarGraph& mobility = network_->mobility();
  const graph::NodeId ext = network_->sensing().ExtNode();
  const uint32_t exterior = labels.count;
  face_row_.assign(labels.count + 1, 0);
  auto for_each_entry = [&](auto&& emit) {
    for (graph::EdgeId e : monitored_edges_) {
      const graph::EdgeRecord& rec = mobility.Edge(e);
      uint32_t fu = face_of_junction_[rec.u];
      uint32_t fv = face_of_junction_[rec.v];
      if (fu == fv) continue;
      emit(fu, FaceEdge{e, fv, rec.left, rec.right, false});
      emit(fv, FaceEdge{e, fu, rec.left, rec.right, true});
    }
    for (graph::NodeId g : network_->gateways()) {
      emit(face_of_junction_[g],
           FaceEdge{network_->VirtualEdgeOf(g), exterior, ext, ext, true});
    }
  };
  for_each_entry([&](uint32_t f, const FaceEdge&) { ++face_row_[f + 1]; });
  for (uint32_t f = 0; f < labels.count; ++f) face_row_[f + 1] += face_row_[f];
  face_edges_.resize(face_row_.back());
  std::vector<uint32_t> cursor(face_row_.begin(), face_row_.end() - 1);
  for_each_entry([&](uint32_t f, const FaceEdge& entry) {
    face_edges_[cursor[f]++] = entry;
  });
}

void SampledGraph::ComputeStats() {
  const graph::PlanarGraph& mobility = network_->mobility();
  const graph::DualGraph& dual = network_->sensing();
  stats_.num_comm_sensors = comm_sensors_.size();
  stats_.num_monitored_edges = monitored_edges_.size();
  stats_.num_faces = face_sizes_.size();

  // Sensors participating in G̃: dual endpoints of monitored edges. Relays
  // are participants that were not selected as communication sensors.
  std::vector<bool> participant(dual.NumNodes(), false);
  std::vector<uint32_t> degree(dual.NumNodes(), 0);
  for (graph::EdgeId e : monitored_edges_) {
    graph::NodeId a = mobility.Edge(e).left;
    graph::NodeId b = mobility.Edge(e).right;
    participant[a] = true;
    participant[b] = true;
    ++degree[a];
    ++degree[b];
  }
  std::vector<bool> is_comm(dual.NumNodes(), false);
  for (graph::NodeId s : comm_sensors_) is_comm[s] = true;
  for (graph::NodeId n = 0; n < dual.NumNodes(); ++n) {
    if (participant[n] && !is_comm[n]) ++stats_.num_relay_sensors;
  }

  // Simplified G̃ (Fig. 6c/f): contract relay chains — every participant of
  // degree != 2 stays a node; edges equal monitored edges minus contracted
  // interior relays.
  size_t junction_nodes = 0;  // Degree != 2 participants.
  size_t chain_nodes = 0;     // Degree == 2 participants (contracted).
  for (graph::NodeId n = 0; n < dual.NumNodes(); ++n) {
    if (!participant[n]) continue;
    if (degree[n] == 2 && !is_comm[n]) {
      ++chain_nodes;
    } else {
      ++junction_nodes;
    }
  }
  stats_.simplified_nodes = junction_nodes;
  stats_.simplified_edges =
      monitored_edges_.size() >= chain_nodes
          ? monitored_edges_.size() - chain_nodes
          : 0;
}

void SampledGraph::EnsureDomains(QueryWorkspace& ws) const {
  // One face id past the last: the exterior across every virtual edge.
  ws.EnsureDomains(face_sizes_.size() + 1, face_of_junction_.size(),
                   network_->sensing().NumNodes(),
                   network_->TotalEdgeSpace());
}

void SampledGraph::ResolveFaces(const std::vector<graph::NodeId>& qr_junctions,
                                BoundMode bound, QueryWorkspace& ws) const {
  EnsureDomains(ws);
  uint32_t gen = ws.NextGeneration();
  std::vector<uint32_t>& junction_stamp = ws.junction_stamp();
  std::vector<uint32_t>& face_stamp = ws.face_stamp();
  std::vector<uint32_t>& face_count = ws.face_count();
  std::vector<uint64_t>& face_bits = ws.face_bits();
  // Count UNIQUE junctions per face: a duplicated junction in the query
  // must not inflate a face's hit count past its size (which would make the
  // full-coverage test below silently reject the face).
  size_t lo_word = face_bits.size();
  size_t hi_word = 0;
  for (graph::NodeId n : qr_junctions) {
    if (junction_stamp[n] == gen) continue;
    junction_stamp[n] = gen;
    uint32_t f = face_of_junction_[n];
    if (face_stamp[f] != gen) {
      face_stamp[f] = gen;
      face_count[f] = 0;
      face_bits[f >> 6] |= uint64_t{1} << (f & 63);
      lo_word = std::min<size_t>(lo_word, f >> 6);
      hi_word = std::max<size_t>(hi_word, f >> 6);
    }
    ++face_count[f];
  }
  // Touched faces come back ascending from the bitmap, which is left zero.
  const bool lower = bound == BoundMode::kLower;
  ws.faces.clear();
  for (size_t w = lo_word; w <= hi_word && w < face_bits.size(); ++w) {
    uint64_t bits = face_bits[w];
    face_bits[w] = 0;
    while (bits != 0) {
      uint32_t f = static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits));
      bits &= bits - 1;
      if (!lower || face_count[f] == face_sizes_[f]) ws.faces.push_back(f);
    }
  }
}

std::vector<uint32_t> SampledGraph::LowerBoundFaces(
    const std::vector<graph::NodeId>& qr_junctions) const {
  QueryWorkspace& ws = LocalWorkspace();
  ResolveFaces(qr_junctions, BoundMode::kLower, ws);
  return ws.faces;
}

std::vector<uint32_t> SampledGraph::UpperBoundFaces(
    const std::vector<graph::NodeId>& qr_junctions) const {
  QueryWorkspace& ws = LocalWorkspace();
  ResolveFaces(qr_junctions, BoundMode::kUpper, ws);
  return ws.faces;
}

void SampledGraph::BoundaryOfFaces(const std::vector<uint32_t>& faces,
                                   QueryWorkspace& ws) const {
  EnsureDomains(ws);
  uint32_t gen = ws.NextGeneration();
  std::vector<uint32_t>& face_stamp = ws.face_stamp();
  std::vector<uint32_t>& sensor_stamp = ws.sensor_stamp();
  std::vector<uint64_t>& edge_bits = ws.edge_bits();
  std::vector<uint64_t>& forward_bits = ws.edge_forward_bits();
  for (uint32_t f : faces) face_stamp[f] = gen;

  // A boundary edge has exactly one side in the region, so it shows up in
  // exactly one in-region face's row; interior edges have the region
  // across and are skipped. The exterior is never stamped, so every
  // virtual edge of an in-region gateway cell is kept.
  size_t lo_word = edge_bits.size();
  size_t hi_word = 0;
  ws.boundary_sensors.clear();
  for (uint32_t f : faces) {
    const FaceEdge* row_end = face_edges_.data() + face_row_[f + 1];
    for (const FaceEdge* e = face_edges_.data() + face_row_[f]; e != row_end;
         ++e) {
      if (face_stamp[e->across] == gen) continue;
      size_t w = e->edge >> 6;
      uint64_t bit = uint64_t{1} << (e->edge & 63);
      edge_bits[w] |= bit;
      if (e->inward_is_forward) forward_bits[w] |= bit;
      lo_word = std::min(lo_word, w);
      hi_word = std::max(hi_word, w);
      // The sensors holding this edge's tracking forms: its dual endpoints,
      // deduplicated by stamp in first-encounter order.
      if (sensor_stamp[e->left] != gen) {
        sensor_stamp[e->left] = gen;
        ws.boundary_sensors.push_back(e->left);
      }
      if (sensor_stamp[e->right] != gen) {
        sensor_stamp[e->right] = gen;
        ws.boundary_sensors.push_back(e->right);
      }
    }
  }

  // Edge-id order == CSR slot order in the frozen store, so the batched
  // boundary kernels walk times_/offsets_ monotonically and their software
  // prefetches aim at ascending addresses. Read back from the bitmaps,
  // which are left zero.
  ws.boundary_edges.clear();
  for (size_t w = lo_word; w <= hi_word && w < edge_bits.size(); ++w) {
    uint64_t bits = edge_bits[w];
    uint64_t forward = forward_bits[w];
    edge_bits[w] = 0;
    forward_bits[w] = 0;
    while (bits != 0) {
      int b = __builtin_ctzll(bits);
      bits &= bits - 1;
      ws.boundary_edges.push_back(
          {static_cast<graph::EdgeId>(w * 64 + b),
           /*inward_is_forward=*/((forward >> b) & 1) != 0});
    }
  }
}

SampledGraph::RegionBoundary SampledGraph::BoundaryOfFaces(
    const std::vector<uint32_t>& faces) const {
  QueryWorkspace& ws = LocalWorkspace();
  BoundaryOfFaces(faces, ws);
  RegionBoundary boundary;
  boundary.edges = ws.boundary_edges;
  boundary.sensors = ws.boundary_sensors;
  return boundary;
}

}  // namespace innet::core
