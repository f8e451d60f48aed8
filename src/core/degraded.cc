#include "core/degraded.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace innet::core {

namespace {

bool EdgeIsDead(const SensorNetwork& network, const SensorHealthView& health,
                graph::EdgeId e) {
  graph::NodeId owner = network.EdgeOwner(e);
  return owner != graph::kInvalidNode && health.IsFailed(owner);
}

// One deformation direction: starting from `start`, repeatedly move the
// boundary across dead edges until it is fully healthy. `outward` absorbs
// the exterior face of each dead boundary edge; otherwise the interior face
// is shed. Every distinct dead edge encountered is recorded in `dead_seen`.
struct Deformation {
  std::vector<uint32_t> faces;
  SampledGraph::RegionBoundary boundary;
  size_t faces_changed = 0;
  bool gave_up = false;  // Step cap hit with dead edges still exposed.
};

Deformation Deform(const SampledGraph& sampled, const SensorHealthView& health,
                   const std::vector<uint32_t>& start, bool outward,
                   size_t max_steps,
                   std::unordered_set<graph::EdgeId>* dead_seen,
                   QueryWorkspace& ws) {
  const SensorNetwork& network = sampled.network();
  Deformation result;
  result.faces = start;
  std::vector<char> in_region(sampled.NumFaces(), 0);
  for (uint32_t f : result.faces) in_region[f] = 1;

  // Each round either terminates or strictly grows/shrinks the face set, so
  // the loop runs at most NumFaces rounds; every round is region-local.
  // Per-round boundaries live in the workspace buffers; only the final,
  // fully-healthy boundary is copied into the owned result.
  while (true) {
    sampled.BoundaryOfFaces(result.faces, ws);
    std::vector<uint32_t> flips;
    for (const forms::BoundaryEdge& be : ws.boundary_edges) {
      if (!EdgeIsDead(network, health, be.edge)) continue;
      dead_seen->insert(be.edge);
      const graph::EdgeRecord& rec = network.mobility().Edge(be.edge);
      uint32_t fu = sampled.FaceOfJunction(rec.u);
      uint32_t fv = sampled.FaceOfJunction(rec.v);
      uint32_t inside = in_region[fu] ? fu : fv;
      uint32_t outside = in_region[fu] ? fv : fu;
      flips.push_back(outward ? outside : inside);
    }
    if (flips.empty()) break;
    std::sort(flips.begin(), flips.end());
    flips.erase(std::unique(flips.begin(), flips.end()), flips.end());

    if (max_steps != 0 && result.faces_changed + flips.size() > max_steps) {
      result.gave_up = true;
      break;
    }
    result.faces_changed += flips.size();
    if (outward) {
      for (uint32_t f : flips) {
        in_region[f] = 1;
        result.faces.push_back(f);
      }
    } else {
      for (uint32_t f : flips) in_region[f] = 0;
      std::vector<uint32_t> kept;
      kept.reserve(result.faces.size());
      for (uint32_t f : result.faces) {
        if (in_region[f]) kept.push_back(f);
      }
      result.faces = std::move(kept);
      if (result.faces.empty()) {
        result.boundary = {};
        return result;
      }
    }
  }
  result.boundary.edges = ws.boundary_edges;
  result.boundary.sensors = ws.boundary_sensors;
  return result;
}

}  // namespace

void ResolveDegradedBoundary(const SampledGraph& sampled,
                             const SensorHealthView& health,
                             const DegradedOptions& options,
                             QueryWorkspace& ws, ResolvedRegion* region) {
  const SensorNetwork& network = sampled.network();
  std::unordered_set<graph::EdgeId> dead_seen;
  for (const forms::BoundaryEdge& be : region->boundary.edges) {
    if (EdgeIsDead(network, health, be.edge)) dead_seen.insert(be.edge);
  }
  region->dead_boundary_edges = dead_seen.size();
  if (dead_seen.empty()) return;
  region->degraded = true;

  const std::vector<uint32_t>& faces = region->faces;
  size_t cap = options.max_deformation_faces;
  Deformation outer =
      Deform(sampled, health, faces, /*outward=*/true, cap, &dead_seen, ws);
  Deformation inner =
      Deform(sampled, health, faces, /*outward=*/false, cap, &dead_seen, ws);

  size_t absorbed = outer.faces_changed;
  if (outer.gave_up) {
    // Fall back to the whole domain: its boundary (the ⋆v_ext virtual edges
    // of every gateway) is always healthy and trivially contains the region.
    std::vector<uint32_t> all(sampled.NumFaces());
    for (uint32_t f = 0; f < sampled.NumFaces(); ++f) all[f] = f;
    sampled.BoundaryOfFaces(all, ws);
    region->outer = {ws.boundary_edges, ws.boundary_sensors};
    absorbed = all.size() - faces.size();
  } else {
    region->outer = std::move(outer.boundary);
  }
  size_t shed = inner.faces_changed;
  if (inner.gave_up || inner.faces.empty()) {
    region->inner_empty = true;
    region->inner = {};
    shed = faces.size();
  } else {
    region->inner = std::move(inner.boundary);
  }
  region->rerouted_faces = absorbed + shed;
  region->dead_edges_total = dead_seen.size();
}

}  // namespace innet::core
