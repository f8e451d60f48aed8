#include "core/query_processor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "forms/region_count.h"
#include "obs/metrics.h"
#include "obs/query_cost.h"
#include "util/logging.h"
#include "util/timer.h"

namespace innet::core {

namespace {

// Processor-level metrics live in the global registry; the reference is
// resolved once (thread-safe local static) and incremented lock-free.
obs::Counter& ProcessorQueries() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "innet_processor_queries",
      "Queries answered by SampledQueryProcessor");
  return counter;
}

obs::Counter& ProcessorMissed() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "innet_processor_missed",
      "SampledQueryProcessor queries with no satisfying sampled face");
  return counter;
}

obs::Counter& ProcessorDegraded() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "innet_processor_degraded_answers",
      "SampledQueryProcessor queries answered in degraded mode");
  return counter;
}

obs::Counter& UnsampledQueries() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "innet_unsampled_queries",
      "Queries answered by UnsampledQueryProcessor");
  return counter;
}

}  // namespace

QueryAnswer SampledQueryProcessor::Answer(const RangeQuery& query,
                                          CountKind kind, BoundMode bound,
                                          obs::ExplainRecord* explain,
                                          QueryWorkspace* workspace) const {
  return AnswerServed(query, kind, bound, nullptr, nullptr, explain,
                      workspace != nullptr ? *workspace : LocalWorkspace());
}

QueryAnswer SampledQueryProcessor::AnswerDegraded(
    const RangeQuery& query, CountKind kind, BoundMode bound,
    const SensorHealthView& health, const DegradedOptions& options,
    obs::ExplainRecord* explain) const {
  return AnswerServed(query, kind, bound, &health, &options, explain,
                      LocalWorkspace());
}

QueryAnswer SampledQueryProcessor::AnswerServed(
    const RangeQuery& query, CountKind kind, BoundMode bound,
    const SensorHealthView* health, const DegradedOptions* options,
    obs::ExplainRecord* explain, QueryWorkspace& ws) const {
  core_.FollowStore();
  util::Timer timer;
  ProcessorQueries().Increment();
  obs::QueryCostProfile& cost = ws.cost;
  cost = obs::QueryCostProfile{};
  ResolvedRegion& region = ws.region;
  core_.Resolve(query.junctions, bound, health,
                options != nullptr ? *options : DegradedOptions{}, ws, &region,
                &cost);
  cost.resolve_nanos = timer.ElapsedNanos();
  QueryAnswer answer =
      core_.Answer(region, query, kind, bound, options, &cost);
  if (answer.missed) ProcessorMissed().Increment();
  if (answer.degraded) ProcessorDegraded().Increment();
  cost.total_nanos = timer.ElapsedNanos();
  cost.integrate_nanos = cost.total_nanos - cost.resolve_nanos;
  answer.exec_micros = static_cast<double>(cost.total_nanos) / 1000.0;
  if (explain != nullptr) {
    core_.Explain(region, query, kind, bound, answer, explain);
  }
  return answer;
}

std::vector<double> SampledQueryProcessor::AnswerSeries(
    const RangeQuery& query, BoundMode bound, size_t steps) const {
  core_.FollowStore();
  INNET_CHECK(query.t2 >= query.t1);
  if (steps == 0) return {};
  util::Timer timer;
  QueryWorkspace& ws = LocalWorkspace();
  obs::QueryCostProfile& cost = ws.cost;
  cost = obs::QueryCostProfile{};
  ResolvedRegion& region = ws.region;
  core_.Resolve(query.junctions, bound, nullptr, DegradedOptions{}, ws,
                &region);
  cost.resolve_nanos = timer.ElapsedNanos();
  core_.Account(region, query, CountKind::kStatic, bound, &cost);
  if (region.missed) {
    cost.total_nanos = cost.resolve_nanos;
    return {};
  }

  // Evaluation instants (ascending): steps == 1 degenerates to the
  // interval start; otherwise endpoints inclusive.
  ws.series.resize(steps);
  if (steps == 1) {
    ws.series[0] = query.t1;
  } else {
    double span = query.t2 - query.t1;
    for (size_t i = 0; i < steps; ++i) {
      ws.series[i] = query.t1 + span * static_cast<double>(i) /
                                    static_cast<double>(steps - 1);
    }
  }

  const std::vector<forms::BoundaryEdge>& edges = region.boundary.edges;
  const forms::FrozenTrackingForm* frozen = core_.view().frozen();
  std::vector<double> series(steps, 0.0);
  if (frozen != nullptr) {
    // One merge pass per boundary edge over the whole instant batch; it
    // probes each boundary slot once per instant.
    forms::EvaluateStaticCountBatch(*frozen, edges, ws.series.data(), steps,
                                    series.data());
    cost.bucket_probes = edges.size() * 2 * steps;
  } else {
    for (size_t i = 0; i < steps; ++i) {
      series[i] = core_.view().StaticCount(edges, ws.series[i]);
    }
  }
  cost.total_nanos = timer.ElapsedNanos();
  cost.integrate_nanos = cost.total_nanos - cost.resolve_nanos;
  return series;
}

QueryAnswer UnsampledQueryProcessor::Answer(const RangeQuery& query,
                                            CountKind kind,
                                            obs::ExplainRecord* explain,
                                            QueryWorkspace* workspace) const {
  util::Timer timer;
  QueryAnswer answer;
  UnsampledQueries().Increment();
  const graph::PlanarGraph& mobility = network_->mobility();
  QueryWorkspace& ws = workspace != nullptr ? *workspace : LocalWorkspace();
  ws.EnsureDomains(0, mobility.NumNodes(), network_->sensing().NumNodes());
  uint32_t gen = ws.NextGeneration();
  obs::QueryCostProfile& cost = ws.cost;
  cost = obs::QueryCostProfile{};
  cost.kind = kind == CountKind::kStatic ? 0 : 1;
  cost.bound = 2;  // exact
  cost.store_kind = StoreView(network_->reference_store()).kind();
  cost.region_junctions = query.junctions.size();
  cost.region_decile = static_cast<uint8_t>(
      obs::RegionSizeDecile(query.junctions.size(), mobility.NumNodes()));

  // Region-local boundary extraction: walk the in-region junctions'
  // adjacency only (the work an in-network dispatch actually performs).
  // Every boundary edge is found exactly once, from its inside endpoint.
  // The membership mask is a generation-stamped scratch array, not a fresh
  // per-query vector<bool>.
  std::vector<uint32_t>& junction_stamp = ws.junction_stamp();
  for (graph::NodeId u : query.junctions) junction_stamp[u] = gen;
  ws.boundary_edges.clear();
  for (graph::NodeId u : query.junctions) {
    for (const graph::Neighbor& nb : mobility.NeighborsOf(u)) {
      if (junction_stamp[nb.node] == gen) continue;
      ws.boundary_edges.push_back(
          {nb.edge, /*inward_is_forward=*/mobility.Edge(nb.edge).v == u});
    }
    if (network_->gateway_mask()[u]) {
      ws.boundary_edges.push_back(
          {network_->VirtualEdgeOf(u), /*inward_is_forward=*/true});
    }
  }
  cost.resolve_nanos = timer.ElapsedNanos();
  answer.estimate =
      kind == CountKind::kStatic
          ? forms::EvaluateStaticCount(network_->reference_store(),
                                       ws.boundary_edges, query.t2)
          : forms::EvaluateTransientCount(network_->reference_store(),
                                          ws.boundary_edges, query.t1,
                                          query.t2);
  answer.interval = forms::CountInterval::Point(answer.estimate);
  answer.edges_accessed = ws.boundary_edges.size();
  cost.integrate_nanos = timer.ElapsedNanos() - cost.resolve_nanos;

  // Flooding cost: every sensor whose face touches a junction of the region
  // participates in the in-network aggregation. Stamped dedup — the same
  // generation works because sensor marks live in their own array.
  std::vector<uint32_t>& sensor_stamp = ws.sensor_stamp();
  size_t sensors = 0;
  for (graph::NodeId n : query.junctions) {
    // Inline FacesAroundNode: the face left of each half-edge leaving n
    // (that call materializes a vector per junction; this walk does not).
    for (const graph::Neighbor& nb : mobility.NeighborsOf(n)) {
      uint32_t h = mobility.Edge(nb.edge).u == n
                       ? (nb.edge << 1)
                       : ((nb.edge << 1) | 1);
      graph::FaceId f = mobility.FaceOfHalfEdge(h);
      if (sensor_stamp[f] != gen) {
        sensor_stamp[f] = gen;
        ++sensors;
      }
    }
  }
  answer.nodes_accessed = sensors;
  cost.boundary_edges = ws.boundary_edges.size();
  cost.boundary_sensors = sensors;
  cost.total_nanos = timer.ElapsedNanos();
  answer.exec_micros = static_cast<double>(cost.total_nanos) / 1000.0;
  if (explain != nullptr) {
    explain->kind = CountKindName(kind);
    explain->bound = "exact";
    explain->path = "unsampled";
    explain->region_cells = query.junctions.size();
    explain->resolved_cells = query.junctions.size();
    explain->deadspace_fraction = 0.0;
    forms::StoreProvenance provenance =
        network_->reference_store().Provenance();
    explain->store = provenance.kind;
    explain->store_modeled_events = provenance.modeled_events;
    explain->store_raw_events = provenance.raw_events;
    FillExplainAnswer(answer, explain);
  }
  return answer;
}

}  // namespace innet::core
