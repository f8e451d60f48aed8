// The answer core: resolve a query region on G̃, then integrate the
// tracking forms along its boundary (Thms 4.2-4.3) — or, under a health
// view, along the healthy deformations F- ⊆ F ⊆ F+ that bracket it
// (docs/FAULTS.md §3). A healthy region is the degenerate pair F- = F = F+
// and integrates once. SampledQueryProcessor is the core's serial wrapper
// and runtime::BatchQueryEngine its cache-and-pool wrapper, so every
// sampled answer takes this one path (docs/PERFORMANCE.md §"Answer core").
#ifndef INNET_CORE_ANSWER_CORE_H_
#define INNET_CORE_ANSWER_CORE_H_

#include <cstdint>
#include <vector>

#include "core/health.h"
#include "core/query.h"
#include "core/query_workspace.h"
#include "core/resolved_region.h"
#include "core/sampled_graph.h"
#include "forms/edge_count_store.h"
#include "forms/frozen_tracking_form.h"
#include "forms/store_handle.h"
#include "obs/explain.h"
#include "obs/query_cost.h"

namespace innet::core {

/// The store a core integrates, chosen once per construction or generation
/// swap: a forms::FrozenTrackingForm runs the fused kernels, any other store
/// the virtual per-edge kernels term for term (learned stores return
/// fractional counts whose sums must not be regrouped). On exact stores
/// both give bit-identical answers.
class StoreView {
 public:
  explicit StoreView(const forms::EdgeCountStore& store) { Latch(&store); }
  /// Handle mode (live ingestion): serves the store published through
  /// `handle`, one pinned generation at a time.
  explicit StoreView(const forms::FrozenStoreHandle& handle);

  /// Handle mode: re-acquires the published store when its generation moved
  /// (otherwise one atomic load, no heap). True on a swap; always false for
  /// a plain store.
  bool Follow();

  const forms::EdgeCountStore& store() const { return *store_; }
  const forms::FrozenTrackingForm* frozen() const { return frozen_; }
  /// Cost-profile store family: 0 exact, 1 modeled.
  uint8_t kind() const { return kind_; }
  /// Pinned store generation (0 outside handle mode).
  uint64_t generation() const { return snapshot_.generation; }

  double StaticCount(const std::vector<forms::BoundaryEdge>& edges,
                     double t) const {
    return frozen_ != nullptr ? forms::EvaluateStaticCount(*frozen_, edges, t)
                              : forms::EvaluateStaticCount(*store_, edges, t);
  }
  double TransientCount(const std::vector<forms::BoundaryEdge>& edges,
                        double t0, double t1) const {
    return frozen_ != nullptr
               ? forms::EvaluateTransientCount(*frozen_, edges, t0, t1)
               : forms::EvaluateTransientCount(*store_, edges, t0, t1);
  }
  double ActivityUpTo(const std::vector<forms::BoundaryEdge>& edges,
                      double t) const {
    return frozen_ != nullptr
               ? forms::EvaluateBoundaryActivity(*frozen_, edges, t)
               : forms::EvaluateBoundaryActivity(*store_, edges, t);
  }
  double ActivityInRange(const std::vector<forms::BoundaryEdge>& edges,
                         double t0, double t1) const {
    return frozen_ != nullptr
               ? forms::EvaluateBoundaryActivity(*frozen_, edges, t0, t1)
               : forms::EvaluateBoundaryActivity(*store_, edges, t0, t1);
  }
  /// Stored CSR timestamps under `edges`, both directions (0 if virtual).
  uint64_t StoredTimestamps(
      const std::vector<forms::BoundaryEdge>& edges) const;

 private:
  void Latch(const forms::EdgeCountStore* store);

  const forms::EdgeCountStore* store_ = nullptr;
  const forms::FrozenTrackingForm* frozen_ = nullptr;
  uint8_t kind_ = 0;
  const forms::FrozenStoreHandle* handle_ = nullptr;
  forms::FrozenStoreHandle::Snapshot snapshot_;
};

/// Resolve → boundary → integrate → interval over one deployment. Holds
/// references only: the graph and store (or handle) must outlive it. The
/// const methods may run on many threads at once; FollowStore may not
/// overlap them.
class AnswerCore {
 public:
  AnswerCore(const SampledGraph& sampled, const forms::EdgeCountStore& store);
  AnswerCore(const SampledGraph& sampled,
             const forms::FrozenStoreHandle& handle);

  const SampledGraph& sampled() const { return *sampled_; }
  const StoreView& view() const { return view_; }
  bool FollowStore() { return view_.Follow(); }

  /// Resolves the faces of `junctions` under `bound` and the boundary F of
  /// their union into `out`, reusing its capacity (a healthy region costs
  /// no allocation once `out` is warm). With `health`, a boundary touching
  /// failed sensors is deformed into F+/F- (ResolveDegradedBoundary), and
  /// `cost` (optional) receives the reroute's time.
  void Resolve(const std::vector<graph::NodeId>& junctions, BoundMode bound,
               const SensorHealthView* health, const DegradedOptions& options,
               QueryWorkspace& ws, ResolvedRegion* out,
               obs::QueryCostProfile* cost = nullptr) const;

  /// Answers `query` over a resolved region, allocation-free. Without
  /// `options` the answer is a point. With them (health-aware serving) it
  /// is the interval of docs/FAULTS.md §3: the counts of F- and F+, widened
  /// by drop and skew slack — each activity pass runs only when its bound
  /// is non-zero — with static intervals clamped at 0. `cost` (optional)
  /// receives the classification axes and what was integrated; the path
  /// (kDegraded excepted) and stage timings are the caller's.
  QueryAnswer Answer(const ResolvedRegion& region, const RangeQuery& query,
                     CountKind kind, BoundMode bound,
                     const DegradedOptions* options,
                     obs::QueryCostProfile* cost) const;

  /// Fills `cost` with the classification axes and the structural counters
  /// of answering `region` — all but the bucket probes, the cache axes of
  /// the path, and the stage timings.
  void Account(const ResolvedRegion& region, const RangeQuery& query,
               CountKind kind, BoundMode bound,
               obs::QueryCostProfile* cost) const;

  /// Fills `explain` with the provenance of `answer`: resolved faces
  /// (ascending), region/resolved cells, dead space, store family, boundary
  /// and interval. Deterministic: no timing fields, so cached and fresh
  /// resolutions explain identically.
  void Explain(const ResolvedRegion& region, const RangeQuery& query,
               CountKind kind, BoundMode bound, const QueryAnswer& answer,
               obs::ExplainRecord* explain) const;

 private:
  const SampledGraph* sampled_;
  StoreView view_;
  obs::RegionDecileBuckets deciles_;
};

/// Mirrors the answer-side fields of `answer` into `explain` (estimate,
/// interval, miss/degraded flags, reroute counts). Timing fields are
/// deliberately NOT copied — explain output stays deterministic.
void FillExplainAnswer(const QueryAnswer& answer, obs::ExplainRecord* explain);

}  // namespace innet::core

#endif  // INNET_CORE_ANSWER_CORE_H_
