#include "forms/frozen_tracking_form.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace innet::forms {

FrozenTrackingForm::FrozenTrackingForm(const TrackingForm& source) {
  size_t num_slots = 2 * source.num_edges();
  offsets_.assign(num_slots + 1, 0);
  times_.reserve(source.TotalEvents());
  hot_index_.assign(num_slots, {});
  first_bucket_.assign(num_slots, 0);

  for (graph::EdgeId road = 0; road < source.num_edges(); ++road) {
    for (bool forward : {true, false}) {
      size_t slot = Slot(road, forward);
      const std::vector<double>& seq = source.Sequence(road, forward);
      offsets_[slot] = times_.size();
      times_.insert(times_.end(), seq.begin(), seq.end());
    }
  }
  offsets_[num_slots] = times_.size();

  for (size_t slot = 0; slot < num_slots; ++slot) IndexSlot(slot);
  SetFirstTime();
}

FrozenTrackingForm::FrozenTrackingForm(std::vector<double> times,
                                       std::vector<uint64_t> offsets)
    : times_(std::move(times)), offsets_(std::move(offsets)) {
  INNET_CHECK(offsets_.size() >= 1 && offsets_.size() % 2 == 1);
  size_t num_slots = offsets_.size() - 1;
  INNET_CHECK(offsets_.front() == 0);
  INNET_CHECK(offsets_.back() == times_.size());
  for (size_t s = 0; s < num_slots; ++s) {
    INNET_CHECK(offsets_[s] <= offsets_[s + 1]);
    INNET_CHECK(std::is_sorted(times_.begin() + offsets_[s],
                               times_.begin() + offsets_[s + 1]));
  }
  hot_index_.assign(num_slots, {});
  first_bucket_.assign(num_slots, 0);
  for (size_t slot = 0; slot < num_slots; ++slot) IndexSlot(slot);
  SetFirstTime();
}

FrozenTrackingForm::FrozenTrackingForm(const FrozenTrackingForm& older,
                                       const FrozenTrackingForm& newer) {
  size_t num_slots = older.offsets_.size() - 1;
  INNET_CHECK(newer.offsets_.size() - 1 == num_slots);
  offsets_.assign(num_slots + 1, 0);
  times_.reserve(older.times_.size() + newer.times_.size());
  hot_index_.assign(num_slots, {});
  first_bucket_.assign(num_slots, 0);
  bucket_starts_.reserve(older.bucket_starts_.size() +
                         newer.bucket_starts_.size());
  auto stored = [](const FrozenTrackingForm& run, size_t s) {
    return run.offsets_[s] != run.offsets_[s + 1];
  };

  size_t slot = 0;
  while (slot < num_slots) {
    // Maximal clean stretch only `older` stores events in, then one only
    // `newer` does: each is one bulk copy of that run's timestamps, and its
    // bucket indexes carry over with only first_bucket rebased.
    size_t end = slot;
    while (end < num_slots && !stored(newer, end)) ++end;
    CopySlots(older, slot, end);
    slot = end;
    while (end < num_slots && !stored(older, end)) ++end;
    CopySlots(newer, slot, end);
    slot = end;
    if (slot == num_slots || !stored(newer, slot)) continue;
    // Dirty slot: both runs hold events. Live ingest seals runs in time
    // order, so the common case appends strictly after the older span; a
    // true merge keeps late events (skewed watermarks) correct.
    offsets_[slot] = times_.size();
    const double* old_begin = older.SlotBegin(slot);
    const double* old_end = older.SlotEnd(slot);
    const double* new_begin = newer.SlotBegin(slot);
    const double* new_end = newer.SlotEnd(slot);
    if (*(old_end - 1) <= *new_begin) {
      times_.insert(times_.end(), old_begin, old_end);
      times_.insert(times_.end(), new_begin, new_end);
    } else {
      size_t at = times_.size();
      times_.resize(at + (old_end - old_begin) + (new_end - new_begin));
      std::merge(old_begin, old_end, new_begin, new_end, times_.begin() + at);
    }
    offsets_[slot + 1] = times_.size();  // Overwritten unless last slot.
    IndexSlot(slot);
    ++slot;
  }
  offsets_[num_slots] = times_.size();
  first_time_ = std::min(older.first_time_, newer.first_time_);
}

void FrozenTrackingForm::CopySlots(const FrozenTrackingForm& source,
                                   size_t begin, size_t end) {
  if (begin == end) return;
  // Timestamps of consecutive slots are contiguous in the source.
  size_t shift = times_.size() - source.offsets_[begin];
  times_.insert(times_.end(), source.times_.begin() + source.offsets_[begin],
                source.times_.begin() + source.offsets_[end]);
  for (size_t s = begin; s < end; ++s) {
    offsets_[s] = source.offsets_[s] + shift;
    size_t n = source.offsets_[s + 1] - source.offsets_[s];
    if (n == 0) continue;
    const HotIndex hot = source.hot_index_[s];
    const uint32_t* starts =
        source.bucket_starts_.data() + source.first_bucket_[s];
    INNET_CHECK(bucket_starts_.size() <= std::numeric_limits<uint32_t>::max());
    first_bucket_[s] = static_cast<uint32_t>(bucket_starts_.size());
    bucket_starts_.insert(bucket_starts_.end(), starts,
                          starts + NumBuckets(n, hot.inv_width) + 1);
    hot_index_[s] = hot;
  }
}

void FrozenTrackingForm::SetFirstTime() {
  first_time_ = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s + 1 < offsets_.size(); ++s) {
    if (offsets_[s] != offsets_[s + 1]) {
      first_time_ = std::min(first_time_, hot_index_[s].t0);
    }
  }
}

// Bucketed prefix-count index: per slot, cut [first, last] event times
// into ceil(n / kEventsPerBucket) uniform buckets and precompute the
// cumulative event count at every bucket boundary (the index of the first
// event at or past the boundary). bucket_starts_ holds num_buckets + 1
// entries per non-empty slot; starts[0] == 0 and starts[num_buckets] == n.
void FrozenTrackingForm::IndexSlot(size_t slot) {
  size_t n = offsets_[slot + 1] - offsets_[slot];
  if (n == 0) return;
  // bucket_starts_ entries and first_bucket_ offsets are uint32: a slot
  // whose event count (or whose index position) no longer fits would
  // silently corrupt every lookup, so freezing refuses it outright.
  INNET_CHECK(n <= std::numeric_limits<uint32_t>::max());
  INNET_CHECK(bucket_starts_.size() <= std::numeric_limits<uint32_t>::max());
  const double* seq = times_.data() + offsets_[slot];
  HotIndex hot;
  hot.t0 = seq[0];
  hot.last = seq[n - 1];
  double span = seq[n - 1] - seq[0];
  size_t nb = (n + kEventsPerBucket - 1) / kEventsPerBucket;
  if (span <= 0.0) nb = 1;  // All events share one timestamp.
  hot.inv_width = span > 0.0 ? static_cast<double>(nb) / span : 0.0;
  INNET_DCHECK(NumBuckets(n, hot.inv_width) == nb);
  first_bucket_[slot] = static_cast<uint32_t>(bucket_starts_.size());
  double width = span > 0.0 ? span / static_cast<double>(nb) : 0.0;
  size_t cursor = 0;
  bucket_starts_.push_back(0);
  for (size_t b = 1; b < nb; ++b) {
    double boundary = hot.t0 + width * static_cast<double>(b);
    while (cursor < n && seq[cursor] < boundary) ++cursor;
    bucket_starts_.push_back(static_cast<uint32_t>(cursor));
  }
  bucket_starts_.push_back(static_cast<uint32_t>(n));
  hot_index_[slot] = hot;
}

void FrozenTrackingForm::CountUpToSlots(const size_t* slots, size_t count,
                                        double t, size_t* out) const {
  if (count == 0) return;
  // Software pipeline. Stage(slot) does the index half of a lookup — row
  // pointers, hot entry, bucket estimate, out-of-range early-outs — and
  // issues prefetches for the lines the resolve half will read (the
  // bucket_starts_ entry and the estimated in-bucket window). Resolving
  // slot i one iteration later gives those fetches a full lookup's worth
  // of work to hide behind, and the staged struct carries the results
  // forward so nothing is computed twice. Two iterations further out, the
  // next slots' index lines themselves are hinted.
  struct Staged {
    const double* seq;
    const uint32_t* starts;  // nullptr = resolved at stage time: answer is n.
    size_t n;
    size_t b;
  };
  auto stage = [&](size_t slot) {
    size_t begin = offsets_[slot];
    Staged s{times_.data() + begin, nullptr, offsets_[slot + 1] - begin, 0};
    if (s.n == 0) return s;
    const HotIndex& hot = hot_index_[slot];
    if (t < hot.t0) {
      s.n = 0;
      return s;
    }
    if (t >= hot.last) return s;  // Whole slot counts; no line touched.
    s.b = BucketEstimate((t - hot.t0) * hot.inv_width,
                         NumBuckets(s.n, hot.inv_width));
    s.starts = bucket_starts_.data() + first_bucket_[slot];
    __builtin_prefetch(s.starts + s.b);
    // b * kEventsPerBucket over-approximates starts[b] (buckets average
    // kEventsPerBucket events) without waiting on the starts load; clamped
    // by construction: b <= ceil(n/8) - 1, so b * 8 <= n - 1.
    __builtin_prefetch(s.seq + s.b * kEventsPerBucket);
    return s;
  };
  auto resolve = [&](const Staged& s) -> size_t {
    if (s.starts == nullptr) return s.n;
    size_t b = s.b;
    size_t lo = s.starts[b];
    while (lo > 0 && s.seq[lo - 1] > t) lo = s.starts[--b];
    size_t bh = s.b;
    size_t hi = s.starts[bh + 1];
    while (hi < s.n && s.seq[hi] <= t) hi = s.starts[++bh + 1];
    return lo + util::simd::CountLessEqual(s.seq + lo, hi - lo, t);
  };
  Staged cur = stage(slots[0]);
  for (size_t i = 0; i + 1 < count; ++i) {
    if (i + 2 < count) {
      size_t s = slots[i + 2];
      __builtin_prefetch(&hot_index_[s]);
      __builtin_prefetch(&first_bucket_[s]);
      __builtin_prefetch(&offsets_[s]);
    }
    Staged next = stage(slots[i + 1]);
    out[i] = resolve(cur);
    cur = next;
  }
  out[count - 1] = resolve(cur);
}

namespace {

// Shared ascending-instants precondition of the batch kernels. `times` is
// read only by INNET_DCHECK, which compiles out of Release builds.
void DCheckAscending([[maybe_unused]] const double* times, size_t count) {
  for (size_t k = 0; k + 1 < count; ++k) {
    INNET_DCHECK(times[k] <= times[k + 1]);
  }
}

// Boundary edges per batched-lookup chunk. 128 edges = 256 slots keeps the
// scratch on the stack (allocation-free warm path) while giving the
// prefetch pipeline a long runway.
constexpr size_t kEdgeChunk = 128;

// Sums, over the boundary edges, [in(t1) - in(t0)] + kOutSign * [out(t1) -
// out(t0)], where "in"/"out" are each edge's inward and outward slots;
// without kRanged the t0 terms drop out (counts up to t1). kOutSign -1
// integrates the tracking form (Thms 4.2-4.3), +1 sums raw crossing
// activity. Chunked through the prefetch-pipelined CountUpToSlots. Counts
// are integers well inside double's exact range, so every partial sum is
// exact and the result matches the virtual per-edge path bit-for-bit.
template <bool kRanged, int kOutSign>
double SumBoundarySlots(const FrozenTrackingForm& store,
                        const std::vector<BoundaryEdge>& boundary, double t0,
                        double t1) {
  double total = 0.0;
  size_t slots[2 * kEdgeChunk];
  size_t at_t1[2 * kEdgeChunk];
  size_t at_t0[2 * kEdgeChunk];
  size_t num_edges = boundary.size();
  for (size_t base = 0; base < num_edges; base += kEdgeChunk) {
    size_t m = std::min(kEdgeChunk, num_edges - base);
    for (size_t j = 0; j < m; ++j) {
      const BoundaryEdge& b = boundary[base + j];
      slots[2 * j] = FrozenTrackingForm::Slot(b.edge, b.inward_is_forward);
      slots[2 * j + 1] =
          FrozenTrackingForm::Slot(b.edge, !b.inward_is_forward);
    }
    store.CountUpToSlots(slots, 2 * m, t1, at_t1);
    if constexpr (kRanged) store.CountUpToSlots(slots, 2 * m, t0, at_t0);
    for (size_t j = 0; j < m; ++j) {
      double in = static_cast<double>(at_t1[2 * j]);
      double out = static_cast<double>(at_t1[2 * j + 1]);
      if constexpr (kRanged) {
        in -= static_cast<double>(at_t0[2 * j]);
        out -= static_cast<double>(at_t0[2 * j + 1]);
      }
      total += in;
      if constexpr (kOutSign < 0) {
        total -= out;
      } else {
        total += out;
      }
    }
  }
  return total;
}

}  // namespace

double EvaluateStaticCount(const FrozenTrackingForm& store,
                           const std::vector<BoundaryEdge>& boundary,
                           double t) {
  return SumBoundarySlots<false, -1>(store, boundary, 0.0, t);
}

double EvaluateTransientCount(const FrozenTrackingForm& store,
                              const std::vector<BoundaryEdge>& boundary,
                              double t0, double t1) {
  // Mirrors EdgeCountStore::CountInRange term by term: the virtual path
  // accumulates (in(t1) - in(t0)) - (out(t1) - out(t0)) per edge.
  return SumBoundarySlots<true, -1>(store, boundary, t0, t1);
}

double EvaluateBoundaryActivity(const FrozenTrackingForm& store,
                                const std::vector<BoundaryEdge>& boundary,
                                double t) {
  return SumBoundarySlots<false, 1>(store, boundary, 0.0, t);
}

double EvaluateBoundaryActivity(const FrozenTrackingForm& store,
                                const std::vector<BoundaryEdge>& boundary,
                                double t0, double t1) {
  return SumBoundarySlots<true, 1>(store, boundary, t0, t1);
}

namespace {

// Adds sign * (events <= times[k]) of one slot into out[0..count): a single
// merge pass — the cursor only ever advances because `times` is ascending.
// Each advance is a galloped, vector-counted upper bound (util/simd.h), so
// dense series steps cost a couple of compares and sparse ones skip whole
// vector widths at a time.
void AccumulateSlotSeries(const FrozenTrackingForm& store, size_t slot,
                          double sign, const double* times, size_t count,
                          double* out) {
  const double* seq = store.SlotBegin(slot);
  size_t n = static_cast<size_t>(store.SlotEnd(slot) - seq);
  size_t cursor = 0;
  for (size_t k = 0; k < count; ++k) {
    cursor += util::simd::CountLeadingLessEqualSorted(seq + cursor,
                                                      n - cursor, times[k]);
    out[k] += sign * static_cast<double>(cursor);
  }
}

}  // namespace

void AddStaticCountBatch(const FrozenTrackingForm& store,
                         const std::vector<BoundaryEdge>& boundary,
                         const double* times, size_t count, double* out) {
  DCheckAscending(times, count);
  size_t num_edges = boundary.size();
  for (size_t i = 0; i < num_edges; ++i) {
    if (i + 1 < num_edges) {
      const BoundaryEdge& next = boundary[i + 1];
      store.PrefetchSlot(FrozenTrackingForm::Slot(next.edge, true));
      store.PrefetchSlot(FrozenTrackingForm::Slot(next.edge, false));
    }
    const BoundaryEdge& b = boundary[i];
    AccumulateSlotSeries(store,
                         FrozenTrackingForm::Slot(b.edge, b.inward_is_forward),
                         1.0, times, count, out);
    AccumulateSlotSeries(
        store, FrozenTrackingForm::Slot(b.edge, !b.inward_is_forward), -1.0,
        times, count, out);
  }
}

void EvaluateTransientCountBatch(const FrozenTrackingForm& store,
                                 const std::vector<BoundaryEdge>& boundary,
                                 double t0, const double* times, size_t count,
                                 double* out) {
  DCheckAscending(times, count);
  for (size_t k = 0; k < count; ++k) out[k] = 0.0;
  // The per-edge t0 bases accumulate into one total subtracted after the
  // edge loop — a single O(steps) pass instead of O(edges * steps)
  // redundant writes. Bases and series values are exact integers, so the
  // regrouped arithmetic is bit-identical to per-edge subtraction.
  double base_total = 0.0;
  size_t num_edges = boundary.size();
  for (size_t i = 0; i < num_edges; ++i) {
    if (i + 1 < num_edges) {
      const BoundaryEdge& next = boundary[i + 1];
      store.PrefetchSlot(FrozenTrackingForm::Slot(next.edge, true));
      store.PrefetchSlot(FrozenTrackingForm::Slot(next.edge, false));
    }
    const BoundaryEdge& b = boundary[i];
    size_t slot_in = FrozenTrackingForm::Slot(b.edge, b.inward_is_forward);
    size_t slot_out = FrozenTrackingForm::Slot(b.edge, !b.inward_is_forward);
    base_total += static_cast<double>(store.CountUpToSlot(slot_in, t0)) -
                  static_cast<double>(store.CountUpToSlot(slot_out, t0));
    AccumulateSlotSeries(store, slot_in, 1.0, times, count, out);
    AccumulateSlotSeries(store, slot_out, -1.0, times, count, out);
  }
  if (base_total != 0.0) {
    for (size_t k = 0; k < count; ++k) out[k] -= base_total;
  }
}

// Defined here (not tracking_form.cc) so TrackingForm's translation unit
// does not depend on the frozen layout.
FrozenTrackingForm TrackingForm::Freeze() const {
  return FrozenTrackingForm(*this);
}

}  // namespace innet::forms
