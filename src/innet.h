// Umbrella header: the full public API of the innet library.
//
// Typical use:
//   #include "innet.h"
//   innet::core::Framework framework(options);
//   auto deployment = framework.DeployWithSampler(...);
//   auto answer = deployment.processor().Answer(query, ...);
//
// Individual headers remain includable on their own; this header is a
// convenience for applications.
#ifndef INNET_INNET_H_
#define INNET_INNET_H_

// Utilities.
#include "util/flags.h"       // IWYU pragma: export
#include "util/logging.h"     // IWYU pragma: export
#include "util/rng.h"         // IWYU pragma: export
#include "util/simd.h"        // IWYU pragma: export
#include "util/stats.h"       // IWYU pragma: export
#include "util/status.h"      // IWYU pragma: export
#include "util/table.h"       // IWYU pragma: export
#include "util/thread_pool.h" // IWYU pragma: export
#include "util/timer.h"       // IWYU pragma: export

// Geometry and spatial indexes.
#include "geometry/convex_hull.h"  // IWYU pragma: export
#include "geometry/delaunay.h"     // IWYU pragma: export
#include "geometry/point.h"        // IWYU pragma: export
#include "geometry/polygon.h"      // IWYU pragma: export
#include "geometry/predicates.h"   // IWYU pragma: export
#include "geometry/rect.h"         // IWYU pragma: export
#include "geometry/segment.h"      // IWYU pragma: export
#include "spatial/grid.h"          // IWYU pragma: export
#include "spatial/kdtree.h"        // IWYU pragma: export
#include "spatial/quadtree.h"      // IWYU pragma: export

// Graphs.
#include "graph/connectivity.h"       // IWYU pragma: export
#include "graph/dual_graph.h"         // IWYU pragma: export
#include "graph/planar_graph.h"       // IWYU pragma: export
#include "graph/planarize.h"          // IWYU pragma: export
#include "graph/shortest_path.h"      // IWYU pragma: export
#include "graph/weighted_adjacency.h" // IWYU pragma: export

// Mobility domain.
#include "mobility/map_matching.h"         // IWYU pragma: export
#include "mobility/perturbation.h"         // IWYU pragma: export
#include "mobility/road_network.h"         // IWYU pragma: export
#include "mobility/trajectory.h"           // IWYU pragma: export
#include "mobility/trajectory_generator.h" // IWYU pragma: export

// Differential forms and stores.
#include "forms/differential_form.h"    // IWYU pragma: export
#include "forms/edge_count_store.h"     // IWYU pragma: export
#include "forms/region_count.h"         // IWYU pragma: export
#include "forms/tracking_form.h"        // IWYU pragma: export
#include "learned/buffered_edge_store.h" // IWYU pragma: export
#include "learned/count_model.h"         // IWYU pragma: export
#include "learned/rolling_store.h"       // IWYU pragma: export
#include "privacy/private_store.h"       // IWYU pragma: export

// Observability: metrics, tracing, exporters, accuracy, provenance, and
// the live telemetry plane (HTTP endpoint, rolling windows, SLOs, crash
// black box).
#include "obs/accuracy.h"         // IWYU pragma: export
#include "obs/build_info.h"       // IWYU pragma: export
#include "obs/explain.h"          // IWYU pragma: export
#include "obs/export.h"           // IWYU pragma: export
#include "obs/flight_recorder.h"  // IWYU pragma: export
#include "obs/metrics.h"          // IWYU pragma: export
#include "obs/query_cost.h"       // IWYU pragma: export
#include "obs/query_digest.h"     // IWYU pragma: export
#include "obs/slo.h"              // IWYU pragma: export
#include "obs/slowlog.h"          // IWYU pragma: export
#include "obs/telemetry_server.h" // IWYU pragma: export
#include "obs/timeseries.h"       // IWYU pragma: export
#include "obs/trace.h"            // IWYU pragma: export

// Sensor selection.
#include "placement/query_adaptive.h" // IWYU pragma: export
#include "placement/submodular.h"     // IWYU pragma: export
#include "sampling/samplers.h"        // IWYU pragma: export

// Core framework.
#include "core/adaptive_weights.h" // IWYU pragma: export
#include "core/answer_core.h"      // IWYU pragma: export
#include "core/budget_planner.h"   // IWYU pragma: export
#include "core/cost_model.h"       // IWYU pragma: export
#include "core/dead_space.h"       // IWYU pragma: export
#include "core/degraded.h"         // IWYU pragma: export
#include "core/dispatch.h"         // IWYU pragma: export
#include "core/event_buffer.h"     // IWYU pragma: export
#include "core/framework.h"        // IWYU pragma: export
#include "core/health.h"           // IWYU pragma: export
#include "core/live_monitor.h"     // IWYU pragma: export
#include "core/query.h"            // IWYU pragma: export
#include "core/query_processor.h"  // IWYU pragma: export
#include "core/resolved_region.h"  // IWYU pragma: export
#include "core/sampled_graph.h"    // IWYU pragma: export
#include "core/sensor_network.h"   // IWYU pragma: export
#include "core/workload.h"         // IWYU pragma: export

// Fault injection and health tracking.
#include "faults/crash_points.h"   // IWYU pragma: export
#include "faults/fault_model.h"    // IWYU pragma: export
#include "faults/health_monitor.h" // IWYU pragma: export

// Serving runtime.
#include "runtime/batch_query_engine.h" // IWYU pragma: export
#include "runtime/boundary_cache.h"     // IWYU pragma: export
#include "runtime/ingest_pipeline.h"    // IWYU pragma: export
#include "runtime/recovery.h"           // IWYU pragma: export

// Baselines, persistence, rendering.
#include "baseline/euler_histogram.h" // IWYU pragma: export
#include "baseline/face_sampling.h"   // IWYU pragma: export
#include "io/event_log.h"             // IWYU pragma: export
#include "io/serialize.h"             // IWYU pragma: export
#include "viz/network_render.h"       // IWYU pragma: export
#include "viz/svg.h"                  // IWYU pragma: export

#endif  // INNET_INNET_H_
