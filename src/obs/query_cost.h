// Per-query cost accounting (docs/OBSERVABILITY.md §9).
//
// A QueryCostProfile is the warm path's answer to "why did this query cost
// what it did": the structural work counters (faces resolved, boundary
// edges integrated, CSR timestamps merged, bucket-index probes) plus the
// classification axes the digest table groups by (query kind, bound,
// region-size decile, store kind, cache path) and per-stage nanoseconds.
//
// The struct is plain data — fixed-size integers and enums only, no
// strings, no heap — so filling one is a handful of stores and resetting
// one is a memset. Query paths accumulate it in place (the engine on its
// stack, the processors in QueryWorkspace::cost), keeping the
// zero-allocation warm-path contract intact with profiling enabled.
//
// Layering: obs sits below core, so this header names graph concepts only
// through small integers. core/runtime fill the fields; obs::QueryDigestTable,
// obs::SlowQueryLog and obs::Tracer consume them.
#ifndef INNET_OBS_QUERY_COST_H_
#define INNET_OBS_QUERY_COST_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace innet::obs {

/// How the query's boundary resolution was served. kDegraded wins over the
/// cache axes: a degraded answer is its own cost regime (rerouted
/// boundary, interval arithmetic) regardless of where the resolution came
/// from.
enum class QueryPathKind : uint8_t {
  kUncached = 0,   ///< No boundary cache in front (processor paths).
  kCacheMiss = 1,  ///< Engine resolved fresh and published to the cache.
  kCacheHit = 2,   ///< Engine reused a cached resolution.
  kDegraded = 3,   ///< Answered in degraded mode (docs/FAULTS.md).
};
inline constexpr size_t kQueryPathKinds = 4;

/// Names for rendering; index with static_cast<size_t>(path).
inline const char* QueryPathKindName(QueryPathKind path) {
  static const char* const kNames[kQueryPathKinds] = {
      "uncached", "cache_miss", "cache_hit", "degraded"};
  return kNames[static_cast<size_t>(path) % kQueryPathKinds];
}

/// Region-size decile of a query: region_cells * 10 / total_cells clamped
/// to [0, 9] (0 when the total is unknown). The digest key's decile axis;
/// RegionDecileBuckets below is its division-free form.
inline size_t RegionSizeDecile(size_t region_cells, size_t total_cells) {
  if (total_cells == 0) return 0;
  size_t decile = region_cells * 10 / total_cells;
  return decile >= 10 ? 9 : decile;
}

/// Division-free RegionSizeDecile for a FIXED total: precomputes the nine
/// decile thresholds once, so the per-query cost is nine compares instead
/// of a 64-bit divide (which is ~5% of a warm cache-hit query by itself).
/// Decile(r) == RegionSizeDecile(r, total) for every r — the thresholds
/// are t_d = ceil(d*total/10), and r*10/total >= d iff r >= t_d.
class RegionDecileBuckets {
 public:
  /// Total 0 (unknown) pins every query to decile 0, like the function.
  RegionDecileBuckets() { thresholds_.fill(kNever); }
  explicit RegionDecileBuckets(size_t total_cells) {
    for (size_t d = 1; d <= thresholds_.size(); ++d) {
      thresholds_[d - 1] =
          total_cells == 0 ? kNever : (d * total_cells + 9) / 10;
    }
  }

  size_t Decile(size_t region_cells) const {
    size_t decile = 0;
    for (size_t threshold : thresholds_) {
      decile += region_cells >= threshold ? 1 : 0;
    }
    return decile;
  }

 private:
  static constexpr size_t kNever = std::numeric_limits<size_t>::max();
  std::array<size_t, 9> thresholds_;
};

/// Cost account of one answered query. Filled by SampledQueryProcessor /
/// UnsampledQueryProcessor (into QueryWorkspace::cost) for every query, and
/// by runtime::BatchQueryEngine (stack local) for every query it answers
/// while a digest table, slow log or tracer listens.
struct QueryCostProfile {
  // --- Classification (the digest key axes). ---
  /// 0 = static count, 1 = transient count.
  uint8_t kind = 0;
  /// 0 = lower bound, 1 = upper bound, 2 = exact (unsampled path).
  uint8_t bound = 0;
  /// 0 = exact store (tracking form), 1 = modeled/learned store.
  uint8_t store_kind = 0;
  QueryPathKind path = QueryPathKind::kUncached;
  /// RegionSizeDecile(region_junctions, total deployment cells).
  uint8_t region_decile = 0;

  // --- Outcome flags (aggregated per digest, not key axes). ---
  bool missed = false;
  bool degraded = false;
  /// Served under a health view: resolution reroutes around failed sensors
  /// and the answer is an interval (docs/FAULTS.md §3).
  bool health_aware = false;

  // --- Structural work counters. ---
  /// Sampled faces whose union covered the region (0 on the exact path).
  uint32_t faces_resolved = 0;
  /// Junction cells of the query region |Q_R|.
  uint64_t region_junctions = 0;
  /// Boundary edges the count integrated over.
  uint64_t boundary_edges = 0;
  /// Sensors owning the boundary (flooded sensors on the exact path).
  uint64_t boundary_sensors = 0;
  /// Stored CSR timestamps under the integrated boundary (both directions
  /// of every boundary edge). Frozen stores only; 0 on virtual stores.
  uint64_t csr_timestamps = 0;
  /// Bucket-index probes: boundary slots x evaluation instants. Frozen
  /// stores only.
  uint64_t bucket_probes = 0;
  /// Store generation the answer was served at (0 outside handle mode).
  uint64_t store_generation = 0;

  // --- Per-stage wall time, nanoseconds: total = resolve + integrate.
  // The only per-query stage-timing record; obs::Tracer renders sampled
  // profiles as stage traces (docs/OBSERVABILITY.md §2). ---
  /// Until the resolved region was in hand: the engine's cache probe plus,
  /// on a miss, fresh resolution.
  uint64_t resolve_nanos = 0;
  /// Of resolve_nanos: the engine's region signature and boundary-cache
  /// probe (0 on processor paths).
  uint64_t cache_lookup_nanos = 0;
  /// Of resolve_nanos: the boundary's reroute around failed sensors
  /// (core::ResolveDegradedBoundary), under a health view only.
  uint64_t reroute_nanos = 0;
  uint64_t integrate_nanos = 0;
  uint64_t total_nanos = 0;
};

}  // namespace innet::obs

#endif  // INNET_OBS_QUERY_COST_H_
