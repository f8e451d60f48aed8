#include "core/sensor_network.h"

#include <algorithm>

#include "core/query.h"
#include "forms/region_count.h"
#include "util/logging.h"
#include "util/simd.h"

namespace innet::core {

namespace {
const char* kKindNames[] = {"static", "transient"};
const char* kBoundNames[] = {"lower", "upper"};
}  // namespace

SensorNetwork::SensorNetwork(graph::PlanarGraph mobility)
    : mobility_(std::move(mobility)),
      sensing_(mobility_),
      gateways_(mobility::GatewayJunctions(mobility_)),
      gateway_mask_(mobility::GatewayMask(mobility_)),
      virtual_edge_of_(mobility_.NumNodes(), graph::kInvalidEdge),
      reference_(mobility_.NumEdges() + gateways_.size()) {
  for (size_t k = 0; k < gateways_.size(); ++k) {
    virtual_edge_of_[gateways_[k]] =
        static_cast<graph::EdgeId>(mobility_.NumEdges() + k);
  }
  domain_bounds_ = geometry::BoundingBox(mobility_.positions().begin(),
                                         mobility_.positions().end());
  // Precompute per-junction sensing-cell bounding boxes (over the incident
  // face centroids; the ext node's far-away position makes border cells
  // effectively unbounded, which is the intended semantics).
  const size_t n = mobility_.NumNodes();
  cell_min_x_.resize(n);
  cell_min_y_.resize(n);
  cell_max_x_.resize(n);
  cell_max_y_.resize(n);
  for (graph::NodeId j = 0; j < n; ++j) {
    geometry::Rect box(mobility_.Position(j).x, mobility_.Position(j).y,
                       mobility_.Position(j).x, mobility_.Position(j).y);
    for (graph::FaceId f : mobility_.FacesAroundNode(j)) {
      box.ExpandToInclude(sensing_.Position(f));
    }
    cell_min_x_[j] = box.min_x;
    cell_min_y_[j] = box.min_y;
    cell_max_x_[j] = box.max_x;
    cell_max_y_[j] = box.max_y;
  }
}

void SensorNetwork::IngestTrajectories(
    const std::vector<mobility::Trajectory>& trajectories) {
  INNET_CHECK(events_.empty());
  for (const mobility::Trajectory& trajectory : trajectories) {
    if (trajectory.nodes.empty()) continue;
    // ⋆v_ext entry crossing for gateway starts.
    if (gateway_mask_[trajectory.nodes.front()]) {
      events_.push_back({virtual_edge_of_[trajectory.nodes.front()],
                         /*forward=*/true, trajectory.times.front()});
    }
    std::vector<mobility::CrossingEvent> crossings =
        mobility::ExtractCrossingEvents(mobility_, trajectory);
    events_.insert(events_.end(), crossings.begin(), crossings.end());
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const mobility::CrossingEvent& a,
                      const mobility::CrossingEvent& b) {
                     return a.time < b.time;
                   });
  for (const mobility::CrossingEvent& event : events_) {
    reference_.RecordTraversal(event.edge, event.forward, event.time);
  }
}

void SensorNetwork::AppendVirtualBoundary(
    const std::vector<bool>& in_region,
    std::vector<forms::BoundaryEdge>* boundary) const {
  for (graph::NodeId g : gateways_) {
    if (in_region[g]) {
      boundary->push_back({virtual_edge_of_[g], /*inward_is_forward=*/true});
    }
  }
}

std::vector<forms::BoundaryEdge> SensorNetwork::RegionBoundaryWithVirtual(
    const std::vector<bool>& in_region) const {
  std::vector<forms::BoundaryEdge> boundary =
      forms::RegionBoundary(mobility_, in_region);
  AppendVirtualBoundary(in_region, &boundary);
  return boundary;
}

void SensorNetwork::JunctionsInRect(const geometry::Rect& rect,
                                    std::vector<graph::NodeId>* out) const {
  const util::simd::BoxColumns cells{cell_min_x_.data(), cell_min_y_.data(),
                                     cell_max_x_.data(), cell_max_y_.data()};
  const util::simd::QueryBox query{rect.min_x, rect.min_y, rect.max_x,
                                   rect.max_y};
  // The kernel may write a whole chunk of candidates; hits land in a stack
  // buffer and only they are appended, so `out` grows by the answer alone.
  constexpr size_t kChunk = 512;
  graph::NodeId hits[kChunk];
  const size_t n = cell_min_x_.size();
  out->clear();
  for (size_t begin = 0; begin < n; begin += kChunk) {
    size_t k = util::simd::BoxesInside(cells, begin,
                                       std::min(n, begin + kChunk), query,
                                       hits);
    out->insert(out->end(), hits, hits + k);
  }
}

std::vector<graph::NodeId> SensorNetwork::JunctionsInRect(
    const geometry::Rect& rect) const {
  // Scan into this thread's retained buffer, then copy out once.
  static thread_local std::vector<graph::NodeId> scratch;
  JunctionsInRect(rect, &scratch);
  return std::vector<graph::NodeId>(scratch.begin(), scratch.end());
}

std::vector<graph::NodeId> SensorNetwork::JunctionsInPolygon(
    const geometry::Polygon& region) const {
  std::vector<graph::NodeId> junctions;
  if (region.size() < 3) return junctions;
  // Candidates: the cells inside the polygon's bbox, ascending. Then the
  // exact concave-safe containment test.
  JunctionsInRect(region.Bounds(), &junctions);
  size_t kept = 0;
  for (graph::NodeId j : junctions) {
    geometry::Rect cell(cell_min_x_[j], cell_min_y_[j], cell_max_x_[j],
                        cell_max_y_[j]);
    if (geometry::PolygonContainsRect(region, cell)) junctions[kept++] = j;
  }
  junctions.resize(kept);
  return junctions;
}

std::vector<bool> SensorNetwork::JunctionMask(
    const std::vector<graph::NodeId>& junctions) const {
  std::vector<bool> mask(mobility_.NumNodes(), false);
  for (graph::NodeId n : junctions) {
    INNET_DCHECK(n < mask.size());
    mask[n] = true;
  }
  return mask;
}

double SensorNetwork::GroundTruthStatic(
    const std::vector<graph::NodeId>& junctions, double t) const {
  std::vector<forms::BoundaryEdge> boundary =
      RegionBoundaryWithVirtual(JunctionMask(junctions));
  return forms::EvaluateStaticCount(reference_, boundary, t);
}

double SensorNetwork::GroundTruthTransient(
    const std::vector<graph::NodeId>& junctions, double t0, double t1) const {
  std::vector<forms::BoundaryEdge> boundary =
      RegionBoundaryWithVirtual(JunctionMask(junctions));
  return forms::EvaluateTransientCount(reference_, boundary, t0, t1);
}

}  // namespace innet::core

namespace innet::core {

const char* CountKindName(CountKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

const char* BoundModeName(BoundMode mode) {
  return kBoundNames[static_cast<int>(mode)];
}

}  // namespace innet::core
