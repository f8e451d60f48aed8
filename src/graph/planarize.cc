#include "graph/planarize.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "geometry/segment.h"
#include "util/logging.h"

namespace innet::graph {

namespace {

// Parameter of point p along segment ab (0 at a, 1 at b).
double ParamOf(const geometry::Point& a, const geometry::Point& b,
               const geometry::Point& p) {
  geometry::Point d = b - a;
  double len2 = geometry::Dot(d, d);
  if (len2 == 0.0) return 0.0;
  return geometry::Dot(p - a, d) / len2;
}

}  // namespace

util::StatusOr<PlanarizeResult> Planarize(
    std::vector<geometry::Point> positions,
    std::vector<std::pair<NodeId, NodeId>> edges) {
  size_t original_nodes = positions.size();
  // Validation.
  {
    std::set<std::pair<long long, long long>> seen_positions;
    for (const geometry::Point& p : positions) {
      auto key = std::make_pair(std::llround(p.x * 1e6),
                                std::llround(p.y * 1e6));
      if (!seen_positions.insert(key).second) {
        return util::InvalidArgumentError("duplicate node positions");
      }
    }
    std::set<std::pair<NodeId, NodeId>> seen_edges;
    for (const auto& [u, v] : edges) {
      if (u >= positions.size() || v >= positions.size()) {
        return util::InvalidArgumentError("edge endpoint out of range");
      }
      if (u == v) return util::InvalidArgumentError("self loop");
      auto key = std::minmax(u, v);
      if (!seen_edges.insert({key.first, key.second}).second) {
        return util::InvalidArgumentError("duplicate edge");
      }
    }
  }

  constexpr double kTouchEps2 = 1e-12;
  // Cut points per edge: (param, node id).
  std::vector<std::vector<std::pair<double, NodeId>>> cuts(edges.size());
  // Crossing-point dedup across pairs (multi-way crossings).
  std::map<std::pair<long long, long long>, NodeId> crossing_nodes;

  auto node_for_point = [&](const geometry::Point& p) -> NodeId {
    auto key = std::make_pair(std::llround(p.x * 1e6),
                              std::llround(p.y * 1e6));
    auto it = crossing_nodes.find(key);
    if (it != crossing_nodes.end()) return it->second;
    NodeId id = static_cast<NodeId>(positions.size());
    positions.push_back(p);
    crossing_nodes[key] = id;
    return id;
  };

  for (size_t i = 0; i < edges.size(); ++i) {
    geometry::Segment si(positions[edges[i].first],
                         positions[edges[i].second]);
    for (size_t j = i + 1; j < edges.size(); ++j) {
      bool share_endpoint = edges[i].first == edges[j].first ||
                            edges[i].first == edges[j].second ||
                            edges[i].second == edges[j].first ||
                            edges[i].second == edges[j].second;
      geometry::Segment sj(positions[edges[j].first],
                           positions[edges[j].second]);
      if (!si.Bounds().Inflated(1e-9).Intersects(sj.Bounds())) continue;

      // Proper crossing: one new junction splits both edges.
      std::optional<geometry::Point> crossing =
          geometry::CrossingPoint(si, sj);
      if (crossing.has_value()) {
        NodeId node = node_for_point(*crossing);
        cuts[i].emplace_back(ParamOf(si.a, si.b, *crossing), node);
        cuts[j].emplace_back(ParamOf(sj.a, sj.b, *crossing), node);
        continue;
      }
      if (!geometry::SegmentsIntersect(si, sj)) continue;

      // Touching without a proper crossing: an endpoint in the other
      // segment's INTERIOR becomes a cut at the existing node. This
      // resolves T-junctions and merges collinear overlaps (each covered
      // endpoint splits the covering edge; duplicate sub-edges collapse in
      // the output set).
      auto try_cut = [&](size_t target, const geometry::Segment& segment,
                         NodeId end) {
        if (geometry::PointSegmentDistanceSquared(positions[end], segment) >=
            kTouchEps2) {
          return false;
        }
        double t = ParamOf(segment.a, segment.b, positions[end]);
        if (t <= 1e-9 || t >= 1.0 - 1e-9) return false;  // At an endpoint.
        cuts[target].emplace_back(t, end);
        return true;
      };
      bool handled = false;
      handled |= try_cut(i, si, edges[j].first);
      handled |= try_cut(i, si, edges[j].second);
      handled |= try_cut(j, sj, edges[i].first);
      handled |= try_cut(j, sj, edges[i].second);
      if (!handled && !share_endpoint) {
        return util::InvalidArgumentError(
            "touching edges could not be planarized");
      }
    }
  }

  // Emit split edges.
  size_t split_edges = 0;
  std::set<std::pair<NodeId, NodeId>> out_edges;
  for (size_t i = 0; i < edges.size(); ++i) {
    std::vector<std::pair<double, NodeId>>& cut = cuts[i];
    if (!cut.empty()) ++split_edges;
    std::sort(cut.begin(), cut.end());
    // Deduplicate cut nodes (e.g., T-junction detected from both sides).
    cut.erase(std::unique(cut.begin(), cut.end(),
                          [](const auto& a, const auto& b) {
                            return a.second == b.second;
                          }),
              cut.end());
    NodeId prev = edges[i].first;
    for (const auto& [param, node] : cut) {
      if (node != prev) {
        auto key = std::minmax(prev, node);
        out_edges.insert({key.first, key.second});
      }
      prev = node;
    }
    if (prev != edges[i].second) {
      auto key = std::minmax(prev, edges[i].second);
      out_edges.insert({key.first, key.second});
    }
  }

  std::vector<std::pair<NodeId, NodeId>> final_edges(out_edges.begin(),
                                                     out_edges.end());
  size_t inserted = positions.size() - original_nodes;
  util::StatusOr<PlanarGraph> graph =
      PlanarGraph::Create(std::move(positions), std::move(final_edges));
  if (!graph.ok()) return graph.status();
  return PlanarizeResult{std::move(*graph), inserted, split_edges};
}

}  // namespace innet::graph
