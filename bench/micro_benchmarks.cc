// Google-benchmark microbenchmarks for the framework's hot paths: crossing
// updates, tracking-form lookups, model observe/predict, routing, and
// sampled-graph construction.
//
// Two modes:
//   (default)      the usual google-benchmark runner and flags
//   --json[=PATH]  a DETERMINISTIC kernel before/after harness instead:
//                  times the virtual (TrackingForm) integration path against
//                  the fused FrozenTrackingForm kernels on one fixed world —
//                  healthy boundaries and degraded F-/F+ pairs alike —
//                  verifies bit-identity, counts warm-path allocations,
//                  times the rectangle-to-junction front end and the A*
//                  trip router against Dijkstra, and writes a JsonReport
//                  (default BENCH_kernels.json) whose schema CI's
//                  bench-smoke job validates.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/answer_core.h"
#include "core/framework.h"
#include "core/live_monitor.h"
#include "core/query_workspace.h"
#include "core/workload.h"
#include "faults/fault_model.h"
#include "forms/differential_form.h"
#include "forms/frozen_tracking_form.h"
#include "forms/region_count.h"
#include "forms/tracking_form.h"
#include "graph/shortest_path.h"
#include "learned/buffered_edge_store.h"
#include "mobility/road_network.h"
#include "runtime/batch_query_engine.h"
#include "sampling/samplers.h"
#include "util/alloc_probe.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/timer.h"

namespace innet {
namespace {

const core::Framework& SharedWorld() {
  static core::Framework* framework = [] {
    core::FrameworkOptions options;
    options.road.num_junctions = 800;
    options.traffic.num_trajectories = 2000;
    options.seed = 99;
    return new core::Framework(options);
  }();
  return *framework;
}

void BM_SnapshotFormUpdate(benchmark::State& state) {
  const auto& network = SharedWorld().network();
  forms::SnapshotForm form(network.mobility().NumEdges());
  util::Rng rng(1);
  size_t num_edges = network.mobility().NumEdges();
  for (auto _ : state) {
    form.RecordTraversal(
        static_cast<graph::EdgeId>(rng.UniformIndex(num_edges)),
        rng.Bernoulli(0.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotFormUpdate);

void BM_TrackingFormLookup(benchmark::State& state) {
  const auto& network = SharedWorld().network();
  const forms::TrackingForm& form = network.reference_store();
  util::Rng rng(2);
  size_t num_edges = network.mobility().NumEdges();
  double horizon = SharedWorld().Horizon();
  for (auto _ : state) {
    benchmark::DoNotOptimize(form.CountUpTo(
        static_cast<graph::EdgeId>(rng.UniformIndex(num_edges)),
        rng.Bernoulli(0.5), rng.Uniform(0, horizon)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackingFormLookup);

void BM_FrozenFormLookup(benchmark::State& state) {
  const auto& network = SharedWorld().network();
  static const forms::FrozenTrackingForm* frozen =
      new forms::FrozenTrackingForm(network.reference_store().Freeze());
  util::Rng rng(2);  // Same stream as BM_TrackingFormLookup.
  size_t num_edges = network.mobility().NumEdges();
  double horizon = SharedWorld().Horizon();
  for (auto _ : state) {
    benchmark::DoNotOptimize(frozen->CountUpToFast(
        static_cast<graph::EdgeId>(rng.UniformIndex(num_edges)),
        rng.Bernoulli(0.5), rng.Uniform(0, horizon)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrozenFormLookup);

void BM_ModelObserve(benchmark::State& state) {
  learned::ModelOptions options;
  options.time_scale = 1e6;
  auto type = static_cast<learned::ModelType>(state.range(0));
  auto model = learned::CreateCountModel(type, options);
  double t = 0.0;
  util::Rng rng(3);
  for (auto _ : state) {
    t += rng.Uniform(0.0, 2.0);
    model->Observe(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelObserve)->DenseRange(0, 4)->ArgName("model");

void BM_ModelPredict(benchmark::State& state) {
  learned::ModelOptions options;
  options.time_scale = 1e6;
  auto type = static_cast<learned::ModelType>(state.range(0));
  auto model = learned::CreateCountModel(type, options);
  util::Rng rng(4);
  double t = 0.0;
  for (int i = 0; i < 10000; ++i) {
    t += rng.Uniform(0.0, 2.0);
    model->Observe(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->Predict(rng.Uniform(0.0, t)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPredict)->DenseRange(0, 4)->ArgName("model");

void BM_Dijkstra(benchmark::State& state) {
  const auto& network = SharedWorld().network();
  const graph::WeightedAdjacency& adjacency = network.sensing().adjacency();
  util::Rng rng(5);
  std::vector<bool> blocked(network.sensing().NumNodes(), false);
  blocked[network.sensing().ExtNode()] = true;
  for (auto _ : state) {
    graph::NodeId src;
    graph::NodeId dst;
    do {
      src = static_cast<graph::NodeId>(rng.UniformIndex(adjacency.size()));
      dst = static_cast<graph::NodeId>(rng.UniformIndex(adjacency.size()));
    } while (blocked[src] || blocked[dst]);
    benchmark::DoNotOptimize(
        graph::ShortestPath(adjacency, src, dst, &blocked));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Dijkstra);

void BM_SampledGraphConstruction(benchmark::State& state) {
  const core::Framework& framework = SharedWorld();
  sampling::KdTreeSampler sampler;
  size_t m = framework.network().NumSensors() *
             static_cast<size_t>(state.range(0)) / 100;
  for (auto _ : state) {
    util::Rng rng(6);
    core::Deployment dep = framework.DeployWithSampler(
        sampler, m, core::DeploymentOptions{}, rng);
    benchmark::DoNotOptimize(dep.graph().NumFaces());
  }
}
BENCHMARK(BM_SampledGraphConstruction)
    ->Arg(5)
    ->Arg(25)
    ->ArgName("pct_sensors")
    ->Unit(benchmark::kMillisecond);

// Shared deployment for the query benches (built once; kd-tree, 1/4 of the
// sensors, exact tracking store).
const core::Deployment& SharedDeployment() {
  static core::Deployment* dep = [] {
    sampling::KdTreeSampler sampler;
    util::Rng rng(7);
    return new core::Deployment(SharedWorld().DeployWithSampler(
        sampler, SharedWorld().network().NumSensors() / 4,
        core::DeploymentOptions{}, rng));
  }();
  return *dep;
}

const forms::FrozenTrackingForm& SharedFrozenStore() {
  static forms::FrozenTrackingForm* frozen = new forms::FrozenTrackingForm(
      SharedDeployment().tracking_store()->Freeze());
  return *frozen;
}

std::vector<core::RangeQuery> SharedQueries() {
  core::WorkloadOptions wo;
  wo.area_fraction = 0.05;
  wo.horizon = SharedWorld().Horizon();
  util::Rng qrng(8);
  return core::GenerateWorkload(SharedWorld().network(), wo, 50, qrng);
}

void BM_SampledQuery(benchmark::State& state) {
  core::SampledQueryProcessor processor = SharedDeployment().processor();
  std::vector<core::RangeQuery> queries = SharedQueries();
  size_t i = 0;
  for (auto _ : state) {
    const core::RangeQuery& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(processor.Answer(q, core::CountKind::kStatic,
                                              core::BoundMode::kLower));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampledQuery);

void BM_SampledQueryFrozen(benchmark::State& state) {
  // BM_SampledQuery on the frozen store: same deployment, same workload,
  // devirtualized fused integration.
  core::SampledQueryProcessor processor(SharedDeployment().graph(),
                                        SharedFrozenStore());
  std::vector<core::RangeQuery> queries = SharedQueries();
  size_t i = 0;
  for (auto _ : state) {
    const core::RangeQuery& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(processor.Answer(q, core::CountKind::kStatic,
                                              core::BoundMode::kLower));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampledQueryFrozen);

void BM_AnswerSeries(benchmark::State& state) {
  // state.range(0) == 1 uses the frozen store (batch kernel), 0 the
  // tracking form (one scan per instant).
  bool use_frozen = state.range(0) == 1;
  core::SampledQueryProcessor tracking = SharedDeployment().processor();
  core::SampledQueryProcessor frozen(SharedDeployment().graph(),
                                     SharedFrozenStore());
  core::SampledQueryProcessor& processor = use_frozen ? frozen : tracking;
  std::vector<core::RangeQuery> queries = SharedQueries();
  size_t i = 0;
  for (auto _ : state) {
    const core::RangeQuery& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(
        processor.AnswerSeries(q, core::BoundMode::kLower, 256));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_AnswerSeries)->Arg(0)->Arg(1)->ArgName("frozen");

void BM_RegionResolution(benchmark::State& state) {
  // JunctionsInRect, the query front end: one SIMD scan over every cell
  // box (util::simd::BoxesInside).
  const auto& framework = SharedWorld();
  const auto& network = framework.network();
  const geometry::Rect& domain = network.DomainBounds();
  util::Rng rng(11);
  for (auto _ : state) {
    double w = domain.Width() * 0.2;
    double x0 = domain.min_x + rng.Uniform(0.0, domain.Width() - w);
    double y0 = domain.min_y + rng.Uniform(0.0, domain.Height() - w);
    benchmark::DoNotOptimize(
        network.JunctionsInRect(geometry::Rect(x0, y0, x0 + w, y0 + w)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegionResolution);

void BM_LiveMonitorEvent(benchmark::State& state) {
  const auto& framework = SharedWorld();
  const auto& network = framework.network();
  core::WorkloadOptions wo;
  wo.area_fraction = 0.1;
  wo.horizon = framework.Horizon();
  util::Rng rng(12);
  std::vector<core::RangeQuery> queries =
      core::GenerateWorkload(network, wo, 1, rng);
  core::LiveRegionMonitor monitor(network, queries[0].junctions);
  const auto& events = network.events();
  size_t i = 0;
  for (auto _ : state) {
    // Cycling the stream would violate time order at the wrap; clamp the
    // timestamp (count arithmetic is order-insensitive).
    mobility::CrossingEvent event = events[i++ % events.size()];
    if (event.time < monitor.LastEventTime()) {
      event.time = monitor.LastEventTime();
    }
    monitor.OnEvent(event);
  }
  benchmark::DoNotOptimize(monitor.CurrentCount());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveMonitorEvent);

void BM_UnsampledQuery(benchmark::State& state) {
  const core::Framework& framework = SharedWorld();
  core::UnsampledQueryProcessor processor(framework.network());
  core::WorkloadOptions wo;
  wo.area_fraction = 0.05;
  wo.horizon = framework.Horizon();
  util::Rng qrng(9);
  std::vector<core::RangeQuery> queries =
      core::GenerateWorkload(framework.network(), wo, 50, qrng);
  size_t i = 0;
  for (auto _ : state) {
    const core::RangeQuery& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(processor.Answer(q, core::CountKind::kStatic));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnsampledQuery);

// --- Deterministic kernel before/after harness (--json mode). -------------

// Nanoseconds per call of `fn` over `reps` repetitions of `work` inner
// calls, with a warm-up pass first.
template <typename Fn>
double TimePerCallNs(size_t reps, size_t work, const Fn& fn) {
  fn();  // Warm caches and any lazy state outside the timed window.
  util::Timer timer;
  for (size_t r = 0; r < reps; ++r) fn();
  return timer.ElapsedMicros() * 1000.0 /
         static_cast<double>(reps * work);
}

// The query front end: nanoseconds per query rectangle to its junctions
// through the out-parameter JunctionsInRect. Its exactness against brute
// force and its zero warm allocations are pinned by
// tests/junction_lookup_test.cc.
double MeasureJunctionLookupNs(const core::SensorNetwork& network,
                               const std::vector<core::RangeQuery>& queries) {
  std::vector<graph::NodeId> junctions;
  size_t hits = 0;
  const double ns = TimePerCallNs(120, queries.size(), [&] {
    for (const core::RangeQuery& q : queries) {
      network.JunctionsInRect(q.rect, &junctions);
      hits += junctions.size();
    }
  });
  if (hits == 0) std::printf("no query rectangle holds a junction\n");
  return ns;
}

int KernelReport(const util::FlagParser& flags) {
  // A fixed mid-size world: big enough for stable kernel timings, small
  // enough that CI's bench-smoke job runs it in seconds.
  core::FrameworkOptions world;
  world.road.num_junctions = 400;
  world.traffic.num_trajectories = 1200;
  world.seed = 99;
  core::Framework framework(world);
  sampling::KdTreeSampler sampler;
  util::Rng rng(7);
  core::Deployment dep = framework.DeployWithSampler(
      sampler, framework.network().NumSensors() / 4, core::DeploymentOptions{},
      rng);
  const forms::TrackingForm& tracking = *dep.tracking_store();
  const forms::EdgeCountStore& virt = tracking;  // Virtual dispatch path.
  forms::FrozenTrackingForm frozen = tracking.Freeze();

  core::WorkloadOptions wo;
  wo.area_fraction = 0.05;
  wo.horizon = framework.Horizon();
  util::Rng qrng(8);
  std::vector<core::RangeQuery> queries =
      core::GenerateWorkload(framework.network(), wo, 120, qrng);

  // Pre-resolve every query's boundary once: the harness times the
  // INTEGRATION kernels, not face resolution.
  std::vector<core::SampledGraph::RegionBoundary> boundaries;
  std::vector<const core::RangeQuery*> resolved_queries;
  size_t boundary_edges = 0;
  for (const core::RangeQuery& q : queries) {
    std::vector<uint32_t> faces = dep.graph().LowerBoundFaces(q.junctions);
    if (faces.empty()) continue;
    boundaries.push_back(dep.graph().BoundaryOfFaces(faces));
    resolved_queries.push_back(&q);
    boundary_edges += boundaries.back().edges.size();
  }

  bench::JsonReport report("kernels");
  report.Note("world", "400j/1200t");
  report.Note("simd", util::simd::ActiveSimdName());
  report.Metric("queries", static_cast<double>(resolved_queries.size()));
  report.Metric("mean_boundary_edges",
                boundaries.empty()
                    ? 0.0
                    : static_cast<double>(boundary_edges) /
                          static_cast<double>(boundaries.size()));
  report.Metric("store_events", static_cast<double>(tracking.TotalEvents()));
  report.Metric("frozen_index_bytes",
                static_cast<double>(frozen.IndexBytes()));

  // Bit-identity first: the speedup numbers are meaningless if the fused
  // kernels drift. Any nonzero drift — here or in the degraded intervals
  // below — fails the harness (and CI).
  double drift = 0.0;
  for (size_t i = 0; i < boundaries.size(); ++i) {
    const core::RangeQuery& q = *resolved_queries[i];
    const auto& edges = boundaries[i].edges;
    drift += std::abs(forms::EvaluateStaticCount(frozen, edges, q.t2) -
                      forms::EvaluateStaticCount(virt, edges, q.t2));
    drift += std::abs(
        forms::EvaluateTransientCount(frozen, edges, q.t1, q.t2) -
        forms::EvaluateTransientCount(virt, edges, q.t1, q.t2));
  }

  // Static-count integration: virtual per-edge CountUpTo vs fused kernel.
  constexpr size_t kReps = 120;
  double sink = 0.0;
  double static_virtual_ns =
      TimePerCallNs(kReps, boundaries.size(), [&] {
        for (size_t i = 0; i < boundaries.size(); ++i) {
          sink += forms::EvaluateStaticCount(virt, boundaries[i].edges,
                                             resolved_queries[i]->t2);
        }
      });
  double static_fused_ns =
      TimePerCallNs(kReps, boundaries.size(), [&] {
        for (size_t i = 0; i < boundaries.size(); ++i) {
          sink += forms::EvaluateStaticCount(frozen, boundaries[i].edges,
                                             resolved_queries[i]->t2);
        }
      });
  report.Metric("static_count_virtual_ns", static_virtual_ns);
  report.Metric("static_count_fused_ns", static_fused_ns);
  report.Metric("static_count_speedup_x",
                static_virtual_ns / std::max(static_fused_ns, 1e-9));

  // Transient-count integration.
  double transient_virtual_ns =
      TimePerCallNs(kReps, boundaries.size(), [&] {
        for (size_t i = 0; i < boundaries.size(); ++i) {
          sink += forms::EvaluateTransientCount(virt, boundaries[i].edges,
                                                resolved_queries[i]->t1,
                                                resolved_queries[i]->t2);
        }
      });
  double transient_fused_ns =
      TimePerCallNs(kReps, boundaries.size(), [&] {
        for (size_t i = 0; i < boundaries.size(); ++i) {
          sink += forms::EvaluateTransientCount(frozen, boundaries[i].edges,
                                                resolved_queries[i]->t1,
                                                resolved_queries[i]->t2);
        }
      });
  report.Metric("transient_count_virtual_ns", transient_virtual_ns);
  report.Metric("transient_count_fused_ns", transient_fused_ns);
  report.Metric("transient_count_speedup_x",
                transient_virtual_ns / std::max(transient_fused_ns, 1e-9));

  // Degraded static answers: the same regions with 10% of sensors dead,
  // resolved once into their healthy deformations F-/F+. The answer core
  // integrates both through the virtual kernels on the TrackingForm vs the
  // fused kernels on the frozen store, with the serving defaults (no drop
  // or skew slack) — the path every degraded cache hit takes.
  faults::FaultOptions fault_options;
  fault_options.seed = 11;
  fault_options.dead_sensor_fraction = 0.10;
  faults::FaultModel health(framework.network(), fault_options);
  const core::DegradedOptions degraded_options;
  core::AnswerCore virtual_core(dep.graph(), virt);
  core::AnswerCore fused_core(dep.graph(), frozen);
  std::vector<core::ResolvedRegion> degraded_regions;
  std::vector<const core::RangeQuery*> degraded_queries;
  core::QueryWorkspace resolve_ws;
  for (const core::RangeQuery* q : resolved_queries) {
    core::ResolvedRegion region;
    fused_core.Resolve(q->junctions, core::BoundMode::kLower, &health,
                       degraded_options, resolve_ws, &region);
    if (!region.degraded) continue;
    degraded_regions.push_back(std::move(region));
    degraded_queries.push_back(q);
  }
  auto degraded_answer = [&](const core::AnswerCore& answer_core, size_t i) {
    return answer_core.Answer(degraded_regions[i], *degraded_queries[i],
                              core::CountKind::kStatic,
                              core::BoundMode::kLower, &degraded_options,
                              nullptr);
  };
  for (size_t i = 0; i < degraded_regions.size(); ++i) {
    core::QueryAnswer a = degraded_answer(virtual_core, i);
    core::QueryAnswer b = degraded_answer(fused_core, i);
    drift += std::abs(a.interval.lo - b.interval.lo) +
             std::abs(a.interval.hi - b.interval.hi);
  }
  report.Metric("identity_abs_drift", drift);
  report.Metric("degraded_queries",
                static_cast<double>(degraded_regions.size()));
  double degraded_virtual_ns =
      TimePerCallNs(kReps, degraded_regions.size(), [&] {
        for (size_t i = 0; i < degraded_regions.size(); ++i) {
          sink += degraded_answer(virtual_core, i).estimate;
        }
      });
  double degraded_fused_ns =
      TimePerCallNs(kReps, degraded_regions.size(), [&] {
        for (size_t i = 0; i < degraded_regions.size(); ++i) {
          sink += degraded_answer(fused_core, i).estimate;
        }
      });
  report.Metric("degraded_static_virtual_ns", degraded_virtual_ns);
  report.Metric("degraded_static_fused_ns", degraded_fused_ns);
  report.Metric("degraded_static_speedup_x",
                degraded_virtual_ns / std::max(degraded_fused_ns, 1e-9));

  // Point lookups: CountUpTo virtual binary search vs bucketed frozen scan.
  constexpr size_t kProbes = 1 << 15;
  std::vector<graph::EdgeId> probe_edges(kProbes);
  std::vector<bool> probe_dirs(kProbes);
  std::vector<double> probe_times(kProbes);
  util::Rng prng(10);
  for (size_t i = 0; i < kProbes; ++i) {
    probe_edges[i] = static_cast<graph::EdgeId>(
        prng.UniformIndex(framework.network().mobility().NumEdges()));
    probe_dirs[i] = prng.Bernoulli(0.5);
    probe_times[i] = prng.Uniform(0.0, framework.Horizon());
  }
  double lookup_virtual_ns = TimePerCallNs(8, kProbes, [&] {
    for (size_t i = 0; i < kProbes; ++i) {
      sink += virt.CountUpTo(probe_edges[i], probe_dirs[i], probe_times[i]);
    }
  });
  double lookup_fused_ns = TimePerCallNs(8, kProbes, [&] {
    for (size_t i = 0; i < kProbes; ++i) {
      sink += frozen.CountUpToFast(probe_edges[i], probe_dirs[i],
                                   probe_times[i]);
    }
  });
  report.Metric("lookup_virtual_ns", lookup_virtual_ns);
  report.Metric("lookup_fused_ns", lookup_fused_ns);
  report.Metric("lookup_speedup_x",
                lookup_virtual_ns / std::max(lookup_fused_ns, 1e-9));

  // AnswerSeries: per-instant scans vs the single-pass batch merge kernel.
  constexpr size_t kSteps = 256;
  core::SampledQueryProcessor tracking_proc = dep.processor();
  core::SampledQueryProcessor frozen_proc(dep.graph(), frozen);
  double series_virtual_ns =
      TimePerCallNs(4, resolved_queries.size() * kSteps, [&] {
        for (const core::RangeQuery* q : resolved_queries) {
          std::vector<double> s =
              tracking_proc.AnswerSeries(*q, core::BoundMode::kLower, kSteps);
          sink += s.empty() ? 0.0 : s.back();
        }
      });
  double series_batch_ns =
      TimePerCallNs(4, resolved_queries.size() * kSteps, [&] {
        for (const core::RangeQuery* q : resolved_queries) {
          std::vector<double> s =
              frozen_proc.AnswerSeries(*q, core::BoundMode::kLower, kSteps);
          sink += s.empty() ? 0.0 : s.back();
        }
      });
  report.Metric("series_virtual_ns_per_step", series_virtual_ns);
  report.Metric("series_batch_ns_per_step", series_batch_ns);
  report.Metric("series_speedup_x",
                series_virtual_ns / std::max(series_batch_ns, 1e-9));

  const double junction_lookup_ns =
      MeasureJunctionLookupNs(framework.network(), queries);
  report.Metric("junction_lookup_ns", junction_lookup_ns);

  // Trip routing: the A* router against Dijkstra (ShortestPath) over the
  // same Euclidean road weights, on a fixed seeded set of junction pairs.
  // That both return the same paths is pinned by
  // tests/shortest_path_test.cc; this times them.
  const graph::PlanarGraph& roads = framework.network().mobility();
  const graph::WeightedAdjacency road_weights =
      graph::EuclideanAdjacency(roads);
  const graph::EuclideanRouter router(roads);
  constexpr size_t kRoutes = 2000;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> route_pairs(kRoutes);
  util::Rng route_rng(12);
  for (auto& [src, dst] : route_pairs) {
    src = static_cast<graph::NodeId>(route_rng.UniformIndex(roads.NumNodes()));
    dst = static_cast<graph::NodeId>(route_rng.UniformIndex(roads.NumNodes()));
  }
  const double route_dijkstra_ns = TimePerCallNs(3, kRoutes, [&] {
    for (const auto& [src, dst] : route_pairs) {
      sink += graph::ShortestPath(road_weights, src, dst)->cost;
    }
  });
  const double route_astar_ns = TimePerCallNs(3, kRoutes, [&] {
    for (const auto& [src, dst] : route_pairs) {
      sink += router.Route(src, dst).cost;
    }
  });
  report.Metric("routes", static_cast<double>(kRoutes));
  report.Metric("route_dijkstra_ns", route_dijkstra_ns);
  report.Metric("route_astar_ns", route_astar_ns);
  report.Metric("route_speedup_x",
                route_dijkstra_ns / std::max(route_astar_ns, 1e-9));

  // Warm-path allocation count: after warm-up, a workspace-threaded query
  // must not touch the heap (the same invariant tests/workspace_test.cc
  // pins; reported here so the bench artifact records it per commit).
  core::QueryWorkspace workspace;
  for (int round = 0; round < 2; ++round) {
    for (const core::RangeQuery* q : resolved_queries) {
      frozen_proc.Answer(*q, core::CountKind::kStatic, core::BoundMode::kLower,
                         nullptr, &workspace);
    }
  }
  util::AllocProbe alloc_probe;
  for (const core::RangeQuery* q : resolved_queries) {
    frozen_proc.Answer(*q, core::CountKind::kStatic, core::BoundMode::kLower,
                       nullptr, &workspace);
  }
  const uint64_t warm_allocs = alloc_probe.Delta();
  report.Metric("warm_query_allocs", static_cast<double>(warm_allocs));

  // The engine's degraded cache-hit path: once every degraded region is
  // cached, answering it must not touch the heap either.
  runtime::BatchEngineOptions engine_options;
  engine_options.health = &health;
  runtime::BatchQueryEngine degraded_engine(dep.graph(), frozen,
                                            engine_options);
  for (int round = 0; round < 2; ++round) {
    for (const core::RangeQuery* q : degraded_queries) {
      degraded_engine.Answer(*q, core::CountKind::kStatic,
                             core::BoundMode::kLower);
    }
  }
  util::AllocProbe degraded_probe;
  for (const core::RangeQuery* q : degraded_queries) {
    degraded_engine.Answer(*q, core::CountKind::kStatic,
                           core::BoundMode::kLower);
  }
  const uint64_t warm_degraded_allocs = degraded_probe.Delta();
  report.Metric("warm_degraded_allocs",
                static_cast<double>(warm_degraded_allocs));

  if (sink == -1.0) std::printf("unreachable %f\n", sink);  // Keep sink live.
  std::printf(
      "kernels: static %.1f -> %.1f ns (%.2fx) | transient %.1f -> %.1f ns "
      "(%.2fx) | degraded static %.1f -> %.1f ns (%.2fx) | lookup %.1f -> "
      "%.1f ns (%.2fx) | series %.2f -> %.2f ns/step (%.2fx) | drift %g | "
      "warm allocs %.0f (degraded %.0f) | junction lookup %.1f ns | route "
      "%.1f -> %.1f us (%.2fx)\n",
      static_virtual_ns, static_fused_ns,
      static_virtual_ns / std::max(static_fused_ns, 1e-9),
      transient_virtual_ns, transient_fused_ns,
      transient_virtual_ns / std::max(transient_fused_ns, 1e-9),
      degraded_virtual_ns, degraded_fused_ns,
      degraded_virtual_ns / std::max(degraded_fused_ns, 1e-9),
      lookup_virtual_ns, lookup_fused_ns,
      lookup_virtual_ns / std::max(lookup_fused_ns, 1e-9), series_virtual_ns,
      series_batch_ns, series_virtual_ns / std::max(series_batch_ns, 1e-9),
      drift, static_cast<double>(warm_allocs),
      static_cast<double>(warm_degraded_allocs), junction_lookup_ns,
      route_dijkstra_ns / 1000.0, route_astar_ns / 1000.0,
      route_dijkstra_ns / std::max(route_astar_ns, 1e-9));

  if (drift != 0.0) {
    std::fprintf(stderr, "FAIL: fused kernels drifted from the virtual path "
                         "(abs drift %g)\n", drift);
    return 1;
  }
  return report.WriteFlagged(flags) ? 0 : 1;
}

}  // namespace
}  // namespace innet

int main(int argc, char** argv) {
  innet::util::FlagParser flags(argc, argv);
  if (flags.Has("json")) {
    // Deterministic kernel report mode (CI's bench-smoke artifact);
    // google-benchmark never initializes.
    return innet::KernelReport(flags);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
