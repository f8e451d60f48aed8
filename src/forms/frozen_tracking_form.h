// Frozen (read-optimized) tracking forms: the CSR counterpart of
// TrackingForm for the serving hot path.
//
// TrackingForm stores one std::vector<double> per (edge, direction) — ideal
// for append-order ingestion, hostile to query scans: every CountUpTo pays
// a virtual call, two pointer dereferences, and a full binary search over a
// heap block that shares no cache lines with its neighbours. Freezing
// rewrites the store into
//
//   - ONE contiguous timestamp array (`times_`, CSR values) with
//     per-(edge, direction) offsets (`offsets_`, CSR row pointers), and
//   - an epoch-bucketed PREFIX-COUNT index: each slot's event span is cut
//     into fixed-width time buckets (~kEventsPerBucket events each) and the
//     cumulative event count at every bucket boundary is precomputed, so a
//     lookup is one O(1) bucket computation plus a short vectorized count
//     inside the bucket instead of a log2(n) pointer chase.
//
// The derived index is stored structure-of-arrays: the HOT per-slot pair
// {t0, inv_width} (everything a probe needs to early-out or aim at its
// bucket — four slots per cache line) lives apart from the COLD per-slot
// bucket_starts_ offset, so the common probe touches one index line. The
// in-bucket resolution is a branchless vector count (util/simd.h: AVX2 /
// NEON / scalar, runtime-dispatched), and CountUpToSlots pipelines
// software prefetches across a batch of slots so DRAM latency overlaps
// across a boundary loop instead of serializing per edge.
//
// Counts are EXACTLY those of the source TrackingForm — integer-valued
// doubles, so every evaluation over a frozen store is bit-identical to the
// virtual path (tests/frozen_form_test.cc pins this). The frozen store is
// immutable: all reads are pure const and race-free across threads.
//
// The free-function kernels at the bottom are the devirtualized fast paths
// used by the query processors and runtime::BatchQueryEngine whenever the
// store they were handed is (dynamically) a FrozenTrackingForm; see
// docs/PERFORMANCE.md for layout diagrams and measured speedups.
#ifndef INNET_FORMS_FROZEN_TRACKING_FORM_H_
#define INNET_FORMS_FROZEN_TRACKING_FORM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "forms/edge_count_store.h"
#include "forms/region_count.h"
#include "forms/tracking_form.h"
#include "graph/planar_graph.h"
#include "util/simd.h"

namespace innet::forms {

/// Immutable CSR tracking store with a bucketed prefix-count time index.
/// Build with TrackingForm::Freeze() (or the constructor) after ingestion
/// has stopped. Live ingestion seals one per epoch as a RUN of a
/// forms::FrozenRuns (forms/frozen_runs.h) and merges runs in pairs.
class FrozenTrackingForm : public EdgeCountStore {
 public:
  /// Target events per time bucket; the per-slot bucket count is
  /// ceil(n / kEventsPerBucket), so the index costs ~1/8 uint32 per stored
  /// timestamp.
  static constexpr size_t kEventsPerBucket = 8;

  explicit FrozenTrackingForm(const TrackingForm& source);

  /// Rehydrates a frozen store from its persisted CSR arrays (snapshot
  /// load, io::LoadFrozenSnapshot). `offsets` must be monotone row pointers
  /// over an even slot count with offsets.back() == times.size(), and every
  /// slot's span must be sorted ascending — CHECK-enforced, so loaders
  /// validate before constructing. The bucket index is derived state and is
  /// rebuilt deterministically, making the result bit-identical to the
  /// store the arrays were copied out of.
  FrozenTrackingForm(std::vector<double> times,
                     std::vector<uint64_t> offsets);

  /// Merge of two runs over the same slot space: the store holding every
  /// event of both. Slots only one run stores events in keep that run's CSR
  /// range and bucket index (maximal stretches of them are one bulk copy);
  /// slots both runs store events in merge their spans (a straight append
  /// when `newer` starts at or after `older`'s last timestamp there) and
  /// rebuild only their own index. The result is bit-identical to a
  /// from-scratch Freeze() of the combined stream (tests/frozen_runs_test.cc
  /// pins this under every merge order of up to 5 runs).
  FrozenTrackingForm(const FrozenTrackingForm& older,
                     const FrozenTrackingForm& newer);

  size_t num_edges() const { return offsets_.size() / 2; }
  size_t TotalEvents() const { return times_.size(); }
  /// Earliest stored timestamp (+inf when empty). No count of this store
  /// at an instant before it can be non-zero, so a sum over runs skips it.
  double FirstTime() const { return first_time_; }

  /// CSR slot of (road, direction). Forward and backward sequences of one
  /// road are adjacent, so both directions of a boundary edge share cache
  /// lines.
  static size_t Slot(graph::EdgeId road, bool forward) {
    return 2 * static_cast<size_t>(road) + (forward ? 0 : 1);
  }

  /// Events recorded on `road` in the given direction.
  size_t EventCount(graph::EdgeId road, bool forward) const {
    size_t s = Slot(road, forward);
    return offsets_[s + 1] - offsets_[s];
  }

  /// Begin/end of one slot's sorted timestamp span.
  const double* SlotBegin(size_t slot) const {
    return times_.data() + offsets_[slot];
  }
  const double* SlotEnd(size_t slot) const {
    return times_.data() + offsets_[slot + 1];
  }

  /// Devirtualized count lookup: events on `slot` with timestamp <= t.
  /// O(1) bucket lookup plus a branchless vectorized count over the bucket
  /// span (util/simd.h); exact (bit-identical to the source TrackingForm's
  /// binary search) at every dispatch level.
  size_t CountUpToSlot(size_t slot, double t) const {
    size_t begin = offsets_[slot];
    size_t n = offsets_[slot + 1] - begin;
    if (n == 0) return 0;
    // Both early-outs resolve on the hot entry alone — no timestamp line.
    const HotIndex& hot = hot_index_[slot];
    if (t < hot.t0) return 0;
    if (t >= hot.last) return n;
    const double* seq = times_.data() + begin;
    // Bucket estimate. The floating-point computation may land a bucket off
    // at exact boundaries; the bucket-granularity guard loops below restore
    // the exact bracket, typically in zero iterations.
    size_t nb = NumBuckets(n, hot.inv_width);
    size_t b = BucketEstimate((t - hot.t0) * hot.inv_width, nb);
    const uint32_t* starts = bucket_starts_.data() + first_bucket_[slot];
    size_t lo = starts[b];
    size_t bh = b;
    while (lo > 0 && seq[lo - 1] > t) lo = starts[--b];
    size_t hi = starts[bh + 1];
    while (hi < n && seq[hi] <= t) hi = starts[++bh + 1];
    // Every index < lo holds a value <= t and every index >= hi a value
    // > t, so the answer is lo plus a vector count over [lo, hi).
    return lo + util::simd::CountLessEqual(seq + lo, hi - lo, t);
  }

  /// Batched multi-slot lookup: out[i] = CountUpToSlot(slots[i], t), with
  /// the next slots' index entries, bucket line, and first timestamp line
  /// software-prefetched ~2 iterations ahead so their DRAM fetches overlap
  /// across the batch. Callers get the most out of the pipeline by passing
  /// slots in ascending id order (SampledGraph emits boundaries that way);
  /// any order is correct.
  void CountUpToSlots(const size_t* slots, size_t count, double t,
                      size_t* out) const;

  /// Hints the lines a CountUpToSlot / series walk of `slot` touches first.
  void PrefetchSlot(size_t slot) const {
    __builtin_prefetch(&hot_index_[slot]);
    __builtin_prefetch(&first_bucket_[slot]);
    __builtin_prefetch(times_.data() + offsets_[slot]);
  }

  /// Devirtualized per-edge count (the non-virtual twin of
  /// EdgeCountStore::CountUpTo).
  double CountUpToFast(graph::EdgeId road, bool forward, double t) const {
    return static_cast<double>(CountUpToSlot(Slot(road, forward), t));
  }

  // EdgeCountStore. Provenance and storage report the PERSISTED form — the
  // timestamp sequences, identical to the source TrackingForm — so frozen
  // and unfrozen deployments explain and account identically (the bucket
  // index is derived state; IndexBytes() reports its in-memory overhead).
  StoreProvenance Provenance() const override {
    return {"exact", 0, TotalEvents()};
  }
  double CountUpTo(graph::EdgeId road, bool forward,
                   double t) const override {
    return CountUpToFast(road, forward, t);
  }
  size_t StorageBytes() const override {
    return TotalEvents() * sizeof(double);
  }
  size_t StorageBytesForEdge(graph::EdgeId road) const override {
    return (EventCount(road, true) + EventCount(road, false)) *
           sizeof(double);
  }

  /// In-memory footprint of the derived prefix-count index.
  size_t IndexBytes() const {
    return bucket_starts_.size() * sizeof(uint32_t) +
           hot_index_.size() * sizeof(HotIndex) +
           first_bucket_.size() * sizeof(uint32_t);
  }

  /// The persisted representation (snapshot save): raw CSR arrays. The
  /// bucket index is intentionally NOT exposed — it is derived state,
  /// rebuilt on load.
  const std::vector<double>& RawTimes() const { return times_; }
  const std::vector<uint64_t>& RawOffsets() const { return offsets_; }

 private:
  /// Builds the bucketed prefix-count index for one slot whose timestamp
  /// span is already in place; appends to bucket_starts_, so callers must
  /// index slots in ascending order.
  void IndexSlot(size_t slot);
  /// Appends slots [begin, end) of `source` — timestamps and bucket
  /// indexes, first_bucket rebased — as one bulk copy.
  void CopySlots(const FrozenTrackingForm& source, size_t begin, size_t end);
  /// Sets first_time_ from the per-slot hot entries.
  void SetFirstTime();

  // SoA derived index. The hot entry is everything a probe reads before it
  // knows which bucket line to touch — including both range bounds, so the
  // out-of-range early-outs (below the first event, at/after the last)
  // resolve WITHOUT touching a timestamp cache line. The bucket_starts_
  // offset is cold (read once per in-range probe), and num_buckets is NOT
  // stored — it is derivable (see NumBuckets).
  struct HotIndex {
    double t0 = 0.0;         // First event time of the slot.
    double inv_width = 0.0;  // num_buckets / (t_last - t0); 0 if zero span.
    double last = 0.0;       // Last event time of the slot.
  };

  /// Bucket count of a slot with `n` events (n > 0): one bucket when all
  /// events share a timestamp (inv_width == 0), ceil(n / kEventsPerBucket)
  /// otherwise. Matches what IndexSlot built, so it need not be stored.
  static size_t NumBuckets(size_t n, double inv_width) {
    return inv_width == 0.0 ? 1
                            : (n + kEventsPerBucket - 1) / kEventsPerBucket;
  }

  /// Clamped bucket estimate from the scaled probe offset `x`; safe for
  /// negative, oversized, and NaN x (NaN arises from +inf probes against
  /// zero-span slots, where the single bucket 0 is always correct).
  static size_t BucketEstimate(double x, size_t nb) {
    if (!(x > 0.0)) return 0;
    if (x >= static_cast<double>(nb)) return nb - 1;
    return static_cast<size_t>(x);
  }

  std::vector<double> times_;     // CSR values: all timestamps, slot-major.
  std::vector<uint64_t> offsets_; // CSR row pointers, size 2*num_edges + 1.
  std::vector<HotIndex> hot_index_;     // Per slot (hot probe state).
  std::vector<uint32_t> first_bucket_;  // Per slot: start into bucket_starts_.
  std::vector<uint32_t> bucket_starts_; // Concatenated per-slot boundaries.
  double first_time_ = 0.0;             // See FirstTime().
};

/// Fused static count (Thm 4.2) over a frozen store: one non-virtual,
/// cache-resident pass over the boundary, chunked through the prefetch-
/// pipelined CountUpToSlots. Bit-identical to the EdgeCountStore overload
/// in region_count.h (counts are integer-valued doubles, so the sum is
/// order-independent-exact).
double EvaluateStaticCount(const FrozenTrackingForm& store,
                           const std::vector<BoundaryEdge>& boundary,
                           double t);

/// Fused transient count (Thm 4.3) over a frozen store.
double EvaluateTransientCount(const FrozenTrackingForm& store,
                              const std::vector<BoundaryEdge>& boundary,
                              double t0, double t1);

/// Fused boundary activity: crossings in BOTH directions recorded on
/// `boundary` up to t — the observed traffic degraded answering's drop
/// slack scales with. Bit-identical to the EdgeCountStore overload.
double EvaluateBoundaryActivity(const FrozenTrackingForm& store,
                                const std::vector<BoundaryEdge>& boundary,
                                double t);

/// Fused boundary activity over (t0, t1].
double EvaluateBoundaryActivity(const FrozenTrackingForm& store,
                                const std::vector<BoundaryEdge>& boundary,
                                double t0, double t1);

/// Batch static-count kernel: evaluates the boundary at `count` query times
/// in ASCENDING order, ADDING the static count at times[k] into out[k], so a
/// series over several runs accumulates run by run (core::StoreView). One
/// merge pass per (edge, direction) — each slot's event array is walked once
/// for the whole series instead of `count` independent searches. Over a
/// zeroed `out` it exactly equals calling EvaluateStaticCount per time
/// (integer arithmetic, no rounding).
void AddStaticCountBatch(const FrozenTrackingForm& store,
                         const std::vector<BoundaryEdge>& boundary,
                         const double* times, size_t count, double* out);

/// Batch transient-count kernel: out[k] = net change over (t0, times[k]]
/// for ASCENDING times.
void EvaluateTransientCountBatch(const FrozenTrackingForm& store,
                                 const std::vector<BoundaryEdge>& boundary,
                                 double t0, const double* times, size_t count,
                                 double* out);

}  // namespace innet::forms

#endif  // INNET_FORMS_FROZEN_TRACKING_FORM_H_
