#include "core/answer_core.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "core/degraded.h"
#include "util/logging.h"
#include "util/timer.h"

namespace innet::core {

namespace {

// Bound on boundary crossings LOST to message drop, given the observed
// (post-drop) activity A: each observed event survived with probability
// 1-p, so E[lost] = A * p / (1 - p). The bound adds a two-sigma binomial
// fluctuation margin plus one event of discreteness headroom — the
// expectation alone misses tail realisations on low-activity boundaries.
double DropSlack(double observed_activity, double drop_rate_bound) {
  double p = std::min(drop_rate_bound, 0.999);
  double expected = observed_activity * p / (1.0 - p);
  return expected + 2.0 * std::sqrt(expected) + 1.0;
}

// Slack for the healthy channel's own losses on one boundary: drop slack
// over the activity in the counted window (up to t2, or (t1, t2] for
// transient counts), plus skew slack — the crossings recorded within the
// skew bound of each counted endpoint, whose true time may lie on its other
// side. A pass runs only when its bound is set; each is charged to
// `edge_instants` (boundary edges x evaluation instants probed).
double ChannelSlack(const StoreView& view,
                    const std::vector<forms::BoundaryEdge>& edges,
                    const RangeQuery& query, CountKind kind,
                    const DegradedOptions& options, uint64_t* edge_instants) {
  const bool is_static = kind == CountKind::kStatic;
  double slack = 0.0;
  if (!(options.drop_rate_bound <= 0.0)) {
    slack = DropSlack(is_static ? view.ActivityUpTo(edges, query.t2)
                                : view.ActivityInRange(edges, query.t1,
                                                       query.t2),
                      options.drop_rate_bound);
    *edge_instants += edges.size() * (is_static ? 1 : 2);
  }
  double s = options.clock_skew_bound;
  if (!(s <= 0.0)) {
    if (!is_static) slack += view.ActivityInRange(edges, query.t1 - s,
                                                  query.t1 + s);
    slack += view.ActivityInRange(edges, query.t2 - s, query.t2 + s);
    *edge_instants += edges.size() * (is_static ? 2 : 4);
  }
  return slack;
}

}  // namespace

StoreView::StoreView(const forms::FrozenStoreHandle& handle)
    : handle_(&handle), snapshot_(handle.Acquire()) {
  INNET_CHECK(snapshot_.store != nullptr);
  Latch(snapshot_.store.get());
}

bool StoreView::Follow() {
  if (handle_ == nullptr || handle_->Generation() == snapshot_.generation) {
    return false;
  }
  snapshot_ = handle_->Acquire();
  Latch(snapshot_.store.get());
  return true;
}

void StoreView::Latch(const forms::EdgeCountStore* store) {
  store_ = store;
  fused_ = false;
  runs_ = nullptr;
  single_ = nullptr;
  num_runs_ = 0;
  if (const auto* runs = dynamic_cast<const forms::FrozenRuns*>(store)) {
    fused_ = true;
    runs_ = runs->RunPointers();
    num_runs_ = runs->num_runs();
  } else if (const auto* frozen =
                 dynamic_cast<const forms::FrozenTrackingForm*>(store)) {
    fused_ = true;
    single_ = frozen;
    num_runs_ = 1;
  }
  kind_ = std::strcmp(store->Provenance().kind, "exact") == 0 ? 0 : 1;
}

void StoreView::StaticSeries(const std::vector<forms::BoundaryEdge>& edges,
                             const double* times, size_t count,
                             double* out) const {
  if (count == 0) return;
  if (!fused_) {
    for (size_t i = 0; i < count; ++i) out[i] = StaticCount(edges, times[i]);
    return;
  }
  for (size_t i = 0; i < count; ++i) out[i] = 0.0;
  for (const forms::FrozenTrackingForm* run : Runs()) {
    if (times[count - 1] < run->FirstTime()) continue;
    forms::AddStaticCountBatch(*run, edges, times, count, out);
  }
}

uint64_t StoreView::StoredTimestamps(
    const std::vector<forms::BoundaryEdge>& edges) const {
  uint64_t timestamps = 0;
  for (const forms::FrozenTrackingForm* run : Runs()) {
    for (const forms::BoundaryEdge& e : edges) {
      timestamps += run->EventCount(e.edge, true) +
                    run->EventCount(e.edge, false);
    }
  }
  return timestamps;
}

AnswerCore::AnswerCore(const SampledGraph& sampled,
                       const forms::EdgeCountStore& store)
    : sampled_(&sampled),
      view_(store),
      deciles_(sampled.network().mobility().NumNodes()) {}

AnswerCore::AnswerCore(const SampledGraph& sampled,
                       const forms::FrozenStoreHandle& handle)
    : sampled_(&sampled),
      view_(handle),
      deciles_(sampled.network().mobility().NumNodes()) {}

void AnswerCore::Resolve(const std::vector<graph::NodeId>& junctions,
                         BoundMode bound, const SensorHealthView* health,
                         const DegradedOptions& options, QueryWorkspace& ws,
                         ResolvedRegion* out,
                         obs::QueryCostProfile* cost) const {
  sampled_->ResolveFaces(junctions, bound, ws);
  out->faces = ws.faces;
  out->missed = ws.faces.empty();
  out->degraded = out->inner_empty = false;
  out->dead_boundary_edges = out->dead_edges_total = out->rerouted_faces = 0;
  out->boundary.edges.clear();
  out->boundary.sensors.clear();
  if (!out->missed) {
    sampled_->BoundaryOfFaces(ws.faces, ws);
    out->boundary.edges = ws.boundary_edges;
    out->boundary.sensors = ws.boundary_sensors;
    if (health != nullptr) {
      std::optional<util::Timer> reroute;
      if (cost != nullptr) reroute.emplace();
      ResolveDegradedBoundary(*sampled_, *health, options, ws, out);
      if (cost != nullptr) cost->reroute_nanos = reroute->ElapsedNanos();
    }
  }
  if (!out->degraded) {
    out->outer = {};
    out->inner = {};
    out->integrated_edges = out->boundary.edges.size();
    out->dispatched_sensors = out->boundary.sensors.size();
    out->stored_timestamps = view_.StoredTimestamps(out->boundary.edges);
    return;
  }
  out->integrated_edges = out->outer.edges.size() + out->inner.edges.size();
  out->stored_timestamps = view_.StoredTimestamps(out->outer.edges) +
                           view_.StoredTimestamps(out->inner.edges);
  // Distinct sensors of F+ and F- — both deformed boundaries are
  // dispatched. Counted once here with stamped marks, never per answer.
  uint32_t gen = ws.NextGeneration();
  std::vector<uint32_t>& mark = ws.sensor_stamp();
  out->dispatched_sensors = 0;
  for (const RegionBoundary* b : {&out->outer, &out->inner}) {
    for (graph::NodeId s : b->sensors) {
      if (mark[s] == gen) continue;
      mark[s] = gen;
      ++out->dispatched_sensors;
    }
  }
}

QueryAnswer AnswerCore::Answer(const ResolvedRegion& region,
                               const RangeQuery& query, CountKind kind,
                               BoundMode bound, const DegradedOptions* options,
                               obs::QueryCostProfile* cost) const {
  QueryAnswer answer;
  uint64_t edge_instants = 0;  // Boundary edges x instants probed.
  if (region.missed) {
    answer.missed = true;
  } else {
    const std::vector<forms::BoundaryEdge>& outer = region.Outer().edges;
    const std::vector<forms::BoundaryEdge>& inner = region.Inner().edges;
    // A healthy region's deformations alias F: integrate it once. A
    // degraded one whose F- shed every face counts 0 there.
    const bool aliased = !region.degraded;
    const bool has_inner = !region.inner_empty;
    const bool is_static = kind == CountKind::kStatic;
    double lo;
    double hi;
    if (is_static) {
      // Static occupancy is monotone under region inclusion, so the counts
      // of F- and F+ bracket the fault-free count of F.
      hi = view_.StaticCount(outer, query.t2);
      lo = aliased    ? hi
           : has_inner ? view_.StaticCount(inner, query.t2)
                       : 0.0;
      if (lo > hi) std::swap(lo, hi);
    } else {
      double c_out = view_.TransientCount(outer, query.t1, query.t2);
      double c_in = aliased    ? c_out
                    : has_inner ? view_.TransientCount(inner, query.t1,
                                                       query.t2)
                                : 0.0;
      lo = std::min(c_out, c_in);
      hi = std::max(c_out, c_in);
    }
    edge_instants += region.integrated_edges * (is_static ? 1 : 2);
    answer.estimate = aliased ? hi : 0.5 * (lo + hi);
    if (options == nullptr) {
      answer.interval = forms::CountInterval::Point(answer.estimate);
    } else {
      double slack_hi =
          ChannelSlack(view_, outer, query, kind, *options, &edge_instants);
      double slack_lo = slack_hi;  // F- is F+ on a healthy region.
      if (!aliased && is_static) {
        slack_lo = has_inner ? ChannelSlack(view_, inner, query, kind,
                                            *options, &edge_instants)
                             : 0.0;
      } else if (!aliased) {
        // Transient (net change) counts are not monotone in the region:
        // widen by the traffic the dead edges could have carried in the
        // window as well — a heuristic, see docs/FAULTS.md.
        double dead_traffic = static_cast<double>(region.dead_edges_total) *
                              options->dead_edge_rate_bound *
                              (query.t2 - query.t1);
        slack_lo = slack_hi = dead_traffic + slack_hi;
      }
      answer.interval = {lo - slack_lo, hi + slack_hi};
      if (is_static) answer.interval = answer.interval.ClampedBelow(0.0);
    }
    answer.nodes_accessed = region.dispatched_sensors;
    answer.edges_accessed = region.integrated_edges;
    answer.degraded = region.degraded;
    answer.dead_boundary_edges = region.dead_boundary_edges;
    answer.rerouted_faces = region.rerouted_faces;
  }
  if (cost != nullptr) {
    Account(region, query, kind, bound, cost);
    cost->health_aware = options != nullptr;
    // Two directed slots per boundary edge and instant.
    if (view_.fused()) cost->bucket_probes = 2 * edge_instants;
  }
  return answer;
}

void AnswerCore::Account(const ResolvedRegion& region,
                         const RangeQuery& query, CountKind kind,
                         BoundMode bound, obs::QueryCostProfile* cost) const {
  cost->kind = kind == CountKind::kStatic ? 0 : 1;
  cost->bound = bound == BoundMode::kLower ? 0 : 1;
  cost->store_kind = view_.kind();
  cost->region_junctions = query.junctions.size();
  cost->region_decile =
      static_cast<uint8_t>(deciles_.Decile(query.junctions.size()));
  cost->store_generation = view_.generation();
  cost->missed = region.missed;
  cost->degraded = region.degraded;
  if (region.degraded) cost->path = obs::QueryPathKind::kDegraded;
  cost->faces_resolved = static_cast<uint32_t>(region.faces.size());
  // What is integrated: F- and F+ on a degraded region, as EXPLAIN reports
  // (docs/OBSERVABILITY.md §9).
  cost->boundary_edges = region.integrated_edges;
  cost->boundary_sensors = region.dispatched_sensors;
  cost->csr_timestamps = region.stored_timestamps;
}

void AnswerCore::Explain(const ResolvedRegion& region,
                         const RangeQuery& query, CountKind kind,
                         BoundMode bound, const QueryAnswer& answer,
                         obs::ExplainRecord* explain) const {
  explain->kind = CountKindName(kind);
  explain->bound = BoundModeName(bound);
  explain->path = answer.degraded ? "degraded" : "sampled";
  explain->faces = region.faces;
  std::sort(explain->faces.begin(), explain->faces.end());
  explain->region_cells = query.junctions.size();
  explain->resolved_cells = 0;
  for (uint32_t face : region.faces) {
    explain->resolved_cells += sampled_->FaceSize(face);
  }
  // Lower bounds cover a subset of Q_R's cells, upper bounds a superset;
  // either way the symmetric difference is |resolved - region|.
  explain->deadspace_fraction =
      explain->region_cells == 0
          ? 0.0
          : std::abs(static_cast<double>(explain->resolved_cells) -
                     static_cast<double>(explain->region_cells)) /
                static_cast<double>(explain->region_cells);
  forms::StoreProvenance provenance = view_.store().Provenance();
  explain->store = provenance.kind;
  explain->store_modeled_events = provenance.modeled_events;
  explain->store_raw_events = provenance.raw_events;
  FillExplainAnswer(answer, explain);
}

void FillExplainAnswer(const QueryAnswer& answer,
                       obs::ExplainRecord* explain) {
  explain->missed = answer.missed;
  explain->degraded = answer.degraded;
  explain->answer = answer.estimate;
  explain->interval_lo = answer.interval.lo;
  explain->interval_hi = answer.interval.hi;
  explain->interval_width = answer.interval.Width();
  explain->boundary_edges = answer.edges_accessed;
  explain->boundary_sensors = answer.nodes_accessed;
  explain->dead_boundary_edges = answer.dead_boundary_edges;
  explain->rerouted_faces = answer.rerouted_faces;
}

}  // namespace innet::core
