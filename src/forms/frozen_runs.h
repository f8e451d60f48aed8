// A published store generation of live ingestion: an immutable, ordered
// list of sealed FrozenTrackingForm runs.
//
// A tracking-form count is a sum of per-edge crossing counts (Thms
// 4.2-4.3), so it adds up over disjoint event sets: a store split into
// runs answers exactly by summing its runs. runtime::IngestPipeline seals
// one run per epoch, in time O(epoch + slots), and a background merge
// thread folds adjacent runs in pairs (the FrozenTrackingForm merge
// constructor) so the run count stays logarithmic in the event count. Runs
// are shared between generations through shared_ptr, so a publish copies
// run pointers, never events.
//
// Counts are integer-valued doubles, so every sum over runs is exact and a
// FrozenRuns answers bit-identically to a from-scratch Freeze() of the
// same events (tests/frozen_runs_test.cc). core::StoreView integrates the
// runs with the fused frozen-store kernels and skips a run whose first
// timestamp lies after the probed instant.
#ifndef INNET_FORMS_FROZEN_RUNS_H_
#define INNET_FORMS_FROZEN_RUNS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "forms/edge_count_store.h"
#include "forms/frozen_tracking_form.h"
#include "graph/planar_graph.h"

namespace innet::forms {

class FrozenRuns : public EdgeCountStore {
 public:
  using Run = std::shared_ptr<const FrozenTrackingForm>;

  /// `runs`, oldest first, must each cover `num_edges` edges. Zero runs is
  /// the empty store.
  FrozenRuns(size_t num_edges, std::vector<Run> runs);

  size_t num_edges() const { return num_edges_; }
  size_t num_runs() const { return runs_.size(); }
  const std::vector<Run>& runs() const { return runs_; }
  /// The runs as raw pointers, oldest first: what a reader sums over
  /// without touching a refcount.
  const FrozenTrackingForm* const* RunPointers() const {
    return pointers_.data();
  }

  size_t TotalEvents() const { return total_events_; }

  /// Events recorded on `road` in the given direction, over every run.
  size_t EventCount(graph::EdgeId road, bool forward) const;

  /// Appends the sorted timestamps of `slot` (FrozenTrackingForm::Slot)
  /// over every run to `out` — the slot's span in a from-scratch freeze of
  /// the same events. Snapshots write a store slot by slot through this,
  /// without building a merged copy.
  void AppendSlot(size_t slot, std::vector<double>* out) const;

  // EdgeCountStore, mirroring FrozenTrackingForm: provenance and storage
  // report the timestamp sequences.
  StoreProvenance Provenance() const override {
    return {"exact", 0, TotalEvents()};
  }
  double CountUpTo(graph::EdgeId road, bool forward, double t) const override;
  size_t StorageBytes() const override {
    return TotalEvents() * sizeof(double);
  }
  size_t StorageBytesForEdge(graph::EdgeId road) const override {
    return (EventCount(road, true) + EventCount(road, false)) *
           sizeof(double);
  }

 private:
  size_t num_edges_;
  std::vector<Run> runs_;
  std::vector<const FrozenTrackingForm*> pointers_;
  size_t total_events_ = 0;
};

}  // namespace innet::forms

#endif  // INNET_FORMS_FROZEN_RUNS_H_
