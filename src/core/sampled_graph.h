// The sampled sensing graph G̃ (§4.5).
//
// Construction. Selected communication sensors are connected by Delaunay
// triangulation or k-NN; each logical edge is materialized as the shortest
// path between the two sensors in the sensing graph G (never routing through
// the ext node). The union of the traversed sensing edges is the MONITORED
// edge set; shared path nodes are the "intersection" relay sensors of
// Fig. 6b/e. For the query-adaptive mode (§4.4) the monitored set is given
// directly as the boundaries of the selected regions.
//
// Faces. A face of G̃ is a maximal set of junctions mutually reachable
// through roads whose sensing edge is NOT monitored — computed by flood
// fill. Every face of G̃ is therefore a union of faces of G (junction
// cells), and the boundary of any union of G̃ faces consists purely of
// monitored edges, so queries touch monitored sensors only.
//
// Tables. Construction flattens everything a query reads per face into one
// CSR table (row pointers plus one flat entry array): a face's row lists
// its incident monitored edges, then the ⋆v_ext virtual edges of its
// gateway cells, each with the face across the edge, the direction that
// enters the face and the edge's two dual endpoints. Boundary assembly is
// then one pass over the rows of the region's faces that reads nothing
// else of the graph.
#ifndef INNET_CORE_SAMPLED_GRAPH_H_
#define INNET_CORE_SAMPLED_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/query.h"
#include "core/query_workspace.h"
#include "core/sensor_network.h"
#include "forms/region_count.h"
#include "graph/planar_graph.h"

namespace innet::core {

/// How sampled sensors are connected into G̃ (§4.5, Fig. 6).
enum class Connectivity {
  kTriangulation,
  kKnn,
};

/// Construction knobs for the query-oblivious mode.
struct SampledGraphOptions {
  Connectivity connectivity = Connectivity::kTriangulation;
  /// Neighbors per sensor for Connectivity::kKnn.
  size_t knn_k = 3;
};

/// Size/shape statistics of a sampled graph.
struct SampledGraphStats {
  size_t num_comm_sensors = 0;     // Selected communication sensors.
  size_t num_relay_sensors = 0;    // Path-interior (relay) sensors.
  size_t num_monitored_edges = 0;  // Sensing edges carrying tracking forms.
  size_t num_faces = 0;            // Faces of G̃ (junction components).
  size_t simplified_nodes = 0;     // G̃ nodes after degree-2 contraction.
  size_t simplified_edges = 0;     // G̃ edges after degree-2 contraction.
};

/// Immutable sampled graph over a SensorNetwork. Every face/boundary table
/// is precomputed at construction and all query methods are pure const
/// reads, so a frozen SampledGraph is safe to share across query threads.
class SampledGraph {
 public:
  /// Query-oblivious construction from selected sensors (§4.3 + §4.5).
  static SampledGraph FromSensors(const SensorNetwork& network,
                                  std::vector<graph::NodeId> sensors,
                                  const SampledGraphOptions& options);

  /// Query-adaptive construction from an explicit monitored edge set (§4.4).
  static SampledGraph FromMonitoredEdges(
      const SensorNetwork& network,
      const std::vector<graph::EdgeId>& monitored,
      std::vector<graph::NodeId> comm_sensors);

  const SensorNetwork& network() const { return *network_; }

  const std::vector<graph::EdgeId>& monitored_edges() const {
    return monitored_edges_;
  }
  /// Virtual ⋆v_ext edges are monitored by every deployment; real edges per
  /// the sampled construction.
  bool IsMonitored(graph::EdgeId e) const {
    return e >= monitored_mask_.size() || monitored_mask_[e];
  }

  const std::vector<graph::NodeId>& comm_sensors() const {
    return comm_sensors_;
  }

  /// Face of G̃ containing the given junction's cell.
  uint32_t FaceOfJunction(graph::NodeId junction) const {
    return face_of_junction_[junction];
  }
  uint32_t NumFaces() const { return static_cast<uint32_t>(face_sizes_.size()); }
  size_t FaceSize(uint32_t face) const { return face_sizes_[face]; }

  /// Lower-bound region: faces of G̃ whose junctions all lie in Q_R
  /// (the maximal enclosed region R2 of Fig. 7). Duplicate junctions in
  /// `qr_junctions` are counted once.
  std::vector<uint32_t> LowerBoundFaces(
      const std::vector<graph::NodeId>& qr_junctions) const;

  /// Upper-bound region: faces of G̃ intersecting Q_R (the minimal
  /// containing region R1 of Fig. 7).
  std::vector<uint32_t> UpperBoundFaces(
      const std::vector<graph::NodeId>& qr_junctions) const;

  /// Allocation-free resolution behind both: the faces of Q_R under
  /// `bound` land in `ws.faces`, ascending. One stamp pass over the
  /// distinct junctions serves either bound — a face with any hit is in
  /// R1, one with FaceSize hits also in R2 — and the touched faces are
  /// read back in id order from a bitmap, so no comparison sort runs.
  /// Repeated calls through one workspace never touch the heap once its
  /// buffers have grown to the graph.
  void ResolveFaces(const std::vector<graph::NodeId>& qr_junctions,
                    BoundMode bound, QueryWorkspace& ws) const;

  /// Boundary of a union of G̃ faces (core/resolved_region.h). The
  /// computation is region-local — it touches only the listed faces' rows
  /// of the boundary table, mirroring the in-network dispatch that never
  /// leaves the query region's perimeter.
  using RegionBoundary = core::RegionBoundary;
  RegionBoundary BoundaryOfFaces(const std::vector<uint32_t>& faces) const;

  /// Allocation-free variant: fills `ws.boundary_edges` and
  /// `ws.boundary_sensors`; the allocating overload shares this
  /// implementation, hence the same order.
  ///   - Edges: each boundary edge once, ascending by edge id — CSR slot
  ///     order in the frozen store, so the batched boundary kernels stream
  ///     it monotonically. Read back from a bitmap; no comparison sort.
  ///   - Sensors: distinct, in first-encounter order — `faces` in the
  ///     given order; per face its boundary edges ascending, the left then
  ///     the right dual endpoint of each; the ext node with the face's
  ///     first gateway cell, after its real edges. core::SimulateDispatch
  ///     depends on this order.
  /// `faces` may alias `ws.faces`.
  void BoundaryOfFaces(const std::vector<uint32_t>& faces,
                       QueryWorkspace& ws) const;

  const SampledGraphStats& stats() const { return stats_; }

 private:
  SampledGraph(const SensorNetwork& network,
               std::vector<graph::NodeId> comm_sensors,
               std::vector<bool> monitored_mask);

  // One entry of a face's row in the boundary table: an edge that bounds
  // the region whenever the face is in it and `across` is not.
  struct FaceEdge {
    graph::EdgeId edge;
    // G̃ face on the other side: NumFaces() — the exterior, never in a
    // region — for a ⋆v_ext virtual edge.
    uint32_t across;
    // The edge's dual endpoints, the sensors holding its tracking forms
    // (both the ext node for a virtual edge).
    graph::NodeId left;
    graph::NodeId right;
    // Crossing the edge forward (u -> v) enters this face.
    bool inward_is_forward;
  };

  void ComputeFaces();
  void ComputeStats();
  void EnsureDomains(QueryWorkspace& ws) const;

  const SensorNetwork* network_;
  std::vector<graph::NodeId> comm_sensors_;
  std::vector<bool> monitored_mask_;
  std::vector<graph::EdgeId> monitored_edges_;
  std::vector<uint32_t> face_of_junction_;
  std::vector<size_t> face_sizes_;
  // Boundary table: face f's row is face_edges_[face_row_[f],
  // face_row_[f + 1]) — the monitored edges between f and another face,
  // ascending (each sits in the rows of both its faces), then f's gateway
  // cells' virtual edges in gateway order.
  std::vector<uint32_t> face_row_;
  std::vector<FaceEdge> face_edges_;
  SampledGraphStats stats_;
};

}  // namespace innet::core

#endif  // INNET_CORE_SAMPLED_GRAPH_H_
