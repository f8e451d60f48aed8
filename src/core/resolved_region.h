// A query region resolved on the sampled graph G̃: what the answer core
// (core/answer_core.h) integrates and what runtime::BoundaryCache memoizes.
#ifndef INNET_CORE_RESOLVED_REGION_H_
#define INNET_CORE_RESOLVED_REGION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "forms/region_count.h"
#include "graph/planar_graph.h"

namespace innet::core {

/// Boundary of a union of G̃ faces: the monitored edges to integrate over
/// (sorted by edge id — frozen CSR slot order) plus the distinct sensors
/// (dual nodes) that must be contacted.
struct RegionBoundary {
  std::vector<forms::BoundaryEdge> edges;
  std::vector<graph::NodeId> sensors;
};

/// The faces of one query region under one bound mode, the fault-free
/// boundary F of their union, and — when a health view saw a dead sensor on
/// F — the two healthy deformations F- ⊆ F ⊆ F+ of docs/FAULTS.md §3.
/// Without a dead boundary sensor both deformations ARE F: Outer() and
/// Inner() return `boundary` itself, so a healthy region stores F once.
struct ResolvedRegion {
  /// No face of G̃ satisfied the bound mode (§5.5); nothing else is set.
  bool missed = false;
  /// Some boundary edge (original or exposed while rerouting) was owned by
  /// a failed sensor; `outer` and `inner` are then populated.
  bool degraded = false;
  /// F- shed every face (static lower bound 0); `inner` is then empty.
  bool inner_empty = false;

  /// Cost of answering, fixed at resolve time: edges integrated (|F+| +
  /// |F-|, or |F|), distinct sensors dispatched, and stored CSR timestamps
  /// under the integrated edges (frozen stores only; an entry never
  /// outlives the store it was counted against).
  size_t integrated_edges = 0;
  size_t dispatched_sensors = 0;
  uint64_t stored_timestamps = 0;
  /// Dead edges on F, and distinct dead edges met across all rerouting.
  size_t dead_boundary_edges = 0;
  size_t dead_edges_total = 0;
  /// Faces absorbed by F+ plus faces shed by F-.
  size_t rerouted_faces = 0;

  /// Fault-free boundary F.
  RegionBoundary boundary;
  /// Healthy boundaries of F+ and F- (degraded regions only).
  RegionBoundary outer;
  RegionBoundary inner;
  /// The resolved G̃ faces (ascending), for the degraded reroute, cost
  /// accounting and EXPLAIN.
  std::vector<uint32_t> faces;

  const RegionBoundary& Outer() const { return degraded ? outer : boundary; }
  const RegionBoundary& Inner() const { return degraded ? inner : boundary; }
};

}  // namespace innet::core

#endif  // INNET_CORE_RESOLVED_REGION_H_
