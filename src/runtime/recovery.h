// Crash recovery for durable ingest (docs/FAULTS.md §"Process & storage
// faults").
//
// A durable IngestPipeline (IngestDurability::wal_dir) fsyncs an epoch's
// WAL commit record before publishing the store generation it produced.
// RecoveryManager inverts that: given the WAL directory of a crashed
// process, it rebuilds the store of the LAST DURABLE EPOCH —
//
//   1. load the newest valid snapshot (snap-<epoch>.snap), if any;
//   2. replay the WAL tail past the snapshot's covered event count;
//   3. seal the tail as one run (SealRun) and merge it onto the snapshot
//      store with the two-run merge the ingest merge thread uses.
//
// The result is BIT-IDENTICAL to the store an uninterrupted run published
// at that epoch: the frozen CSR content depends only on the final per-slot
// sorted timestamp sequences, which are invariant under epoch partitioning,
// and the bucket index is derived deterministically from them
// (tests/recovery_test.cc proves this per crash point across a seed
// matrix). Invalid snapshots fall back to older ones, then to full-log
// replay — a torn snapshot can cost time, never correctness.
#ifndef INNET_RUNTIME_RECOVERY_H_
#define INNET_RUNTIME_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "forms/frozen_tracking_form.h"
#include "obs/metrics.h"
#include "runtime/ingest_pipeline.h"
#include "util/status.h"

namespace innet::runtime {

struct RecoveryOptions {
  /// WAL directory of the crashed pipeline (IngestDurability::wal_dir).
  std::string wal_dir;
  /// Edge-space size the pipeline was built with; snapshots with a
  /// different slot count are rejected as foreign.
  size_t num_edges = 0;
  /// Metrics sink; nullptr = the process-global registry. Exposes
  /// innet_recovery_replay_events.
  obs::MetricsRegistry* registry = nullptr;
};

/// Everything recovered from the log: the store to serve and the positions
/// a resumed pipeline continues from.
struct RecoveredState {
  std::shared_ptr<const forms::FrozenTrackingForm> store;
  /// Generation the store was published at. 1 when the log holds no
  /// commits — matching the empty generation-1 store every pipeline
  /// publishes at construction.
  uint64_t generation = 1;
  uint64_t durable_epoch = 0;   ///< Last committed WAL epoch (0 = none).
  uint64_t durable_events = 0;  ///< Events covered by committed epochs.
  uint64_t replayed_events = 0;  ///< WAL-tail events folded past snapshot.
  uint64_t snapshot_events = 0;  ///< Events the loaded snapshot covered.
  bool used_snapshot = false;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(RecoveryOptions options);

  /// Rebuilds the last durable state. Fails on unreadable directories or
  /// mid-log corruption (same contract as io::ReplayEventLog); an empty or
  /// missing log recovers to the empty generation-1 store.
  util::StatusOr<RecoveredState> Recover();

  /// Recover() + a pipeline resumed from the result: it serves the
  /// recovered store immediately and appends new epochs to the same WAL.
  /// `pipeline_options.durability.wal_dir` and resume fields are filled in
  /// here; everything else (shards, epoch target, snapshot cadence,
  /// registry) is taken from the caller. When `state_out` is non-null the
  /// recovered state is copied there.
  util::StatusOr<std::unique_ptr<IngestPipeline>> Resume(
      IngestPipelineOptions pipeline_options = {},
      RecoveredState* state_out = nullptr);

 private:
  RecoveryOptions options_;
};

}  // namespace innet::runtime

#endif  // INNET_RUNTIME_RECOVERY_H_
