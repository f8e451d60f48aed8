#include "forms/frozen_runs.h"

#include <algorithm>

#include "util/logging.h"

namespace innet::forms {

FrozenRuns::FrozenRuns(size_t num_edges, std::vector<Run> runs)
    : num_edges_(num_edges), runs_(std::move(runs)) {
  pointers_.reserve(runs_.size());
  for (const Run& run : runs_) {
    INNET_CHECK(run != nullptr && run->num_edges() == num_edges_);
    pointers_.push_back(run.get());
    total_events_ += run->TotalEvents();
  }
}

size_t FrozenRuns::EventCount(graph::EdgeId road, bool forward) const {
  size_t count = 0;
  for (const FrozenTrackingForm* run : pointers_) {
    count += run->EventCount(road, forward);
  }
  return count;
}

double FrozenRuns::CountUpTo(graph::EdgeId road, bool forward,
                             double t) const {
  size_t slot = FrozenTrackingForm::Slot(road, forward);
  size_t count = 0;
  for (const FrozenTrackingForm* run : pointers_) {
    if (t < run->FirstTime()) continue;
    count += run->CountUpToSlot(slot, t);
  }
  return static_cast<double>(count);
}

void FrozenRuns::AppendSlot(size_t slot, std::vector<double>* out) const {
  size_t begin = out->size();
  for (const FrozenTrackingForm* run : pointers_) {
    const double* span_begin = run->SlotBegin(slot);
    const double* span_end = run->SlotEnd(slot);
    if (span_begin == span_end) continue;
    size_t mid = out->size();
    out->insert(out->end(), span_begin, span_end);
    // Runs sealed in time order just concatenate; a late event that
    // overlaps an older run's span takes a stable merge.
    if (mid > begin && (*out)[mid - 1] > *span_begin) {
      std::inplace_merge(out->begin() + begin, out->begin() + mid,
                         out->end());
    }
  }
}

}  // namespace innet::forms
