// Live ingestion with background publishing of sealed runs.
//
// The frozen serving path (forms/frozen_tracking_form.h) is a snapshot;
// this pipeline keeps it fresh against a never-ending crossing-event
// stream without ever blocking readers:
//
//   EventReorderBuffer sinks → per-shard append buffers → (epoch close)
//     → freezer thread: snips the buffers, appends and fsync-commits the
//       epoch to the WAL, then FrozenStoreHandle::Publish() of the
//       previous generation's runs plus the new one — readers swap at
//       their next query;
//     → seal worker: SealRun() scatter-sorts the epoch into its own run
//       while the freezer commits it (durable pipelines only; without a
//       WAL the freezer seals inline, there is nothing to overlap);
//     → merge thread: folds adjacent runs in pairs off the publish path.
//
// A publish therefore waits max(WAL append + fsync, seal), not their sum.
//
// A publish costs O(epoch + slots), never O(store): the generation is a
// forms::FrozenRuns that shares every older run with the previous one.
// The merge thread keeps the run count logarithmic by one constant rule
// (kMergeFactor): it merges the newest adjacent pair whose older run
// holds at most kMergeFactor times the newer run's events, so an event is
// copied O(log n) times over its life. A finished merge waits for the
// freezer, which swaps it into the next generation it publishes — every
// generation is one WAL epoch, and no merge runs between an epoch's
// close and its publish.
//
// Epoch lifecycle: Push() appends under a shard mutex (microseconds);
// CloseEpoch() snips every shard's buffer and hands the batch to the
// freezer. An event is owned by exactly one epoch — whichever CloseEpoch
// first swaps out the shard buffer it sits in — so epoch-aligned
// timestamps can never be dropped or double-delivered by the pipeline
// itself (tests/ingest_pipeline_test.cc replays adversarial streams to
// pin this). The freezer swaps every shard buffer under all shard locks
// at once, so an epoch is a consistent cut of the push order. It swaps in
// the previous epoch's buffers, cleared, so Push() appends into capacity
// the last epoch already grew instead of regrowing from empty: each shard
// keeps two buffers of its largest epoch share (about 2 MB each at a
// 100k-event epoch on one shard). Close requests coalesce: a slow freezer
// drains every outstanding request in one publish.
//
// Durability (optional, IngestDurability): with a WAL directory set, the
// freezer appends each epoch's events to a segmented checksummed log
// (io/event_log.h) and fsyncs a commit record BEFORE publishing, so every
// generation a reader ever observed is recoverable after a crash
// (runtime/recovery.h); the seal worker builds the epoch's run meanwhile,
// and the freezer waits for it only after the fsync returned. Periodic
// snapshots (io/serialize.h) keep recovery to a short tail replay. The
// WAL rotates segments at 8 MiB (io::EventLogOptions' default) and fsyncs
// every commit.
//
// No backpressure: Push() never waits for the freezer and never drops an
// event, so the published store records every crossing pushed — the
// condition under which its answers are lower and upper bounds. The shard
// buffers hold whatever was pushed since the last snip; producers bound
// them by closing epochs (epoch_event_target or CloseEpoch()).
//
// Reclamation: superseded generations and runs die when the last reader
// snapshot referencing them drops (shared_ptr refcount; see
// forms/store_handle.h).
#ifndef INNET_RUNTIME_INGEST_PIPELINE_H_
#define INNET_RUNTIME_INGEST_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/event_buffer.h"
#include "forms/store_handle.h"
#include "io/event_log.h"
#include "mobility/trajectory.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace innet::runtime {

/// Durability knobs. Active when `wal_dir` is non-empty: the pipeline
/// opens (or resumes) a WAL there and epochs become durable on publish.
struct IngestDurability {
  /// Write-ahead-log directory (created if missing). Empty = durability
  /// off, the pre-existing in-memory-only behavior.
  std::string wal_dir;
  /// Cut a frozen-store snapshot (snap-<epoch>.snap in wal_dir) every N
  /// published epochs so recovery replays only a short WAL tail. 0 = never
  /// snapshot; recovery then replays the whole log.
  size_t snapshot_every_epochs = 0;
};

/// IngestPipeline construction knobs.
struct IngestPipelineOptions {
  /// Append-buffer shards (rounded up to a power of two). More shards =
  /// less Push() contention; one is fine for a single-writer stream.
  size_t shards = 4;
  /// Auto-close an epoch once this many events have been buffered since
  /// the last close. 0 = epochs close only on explicit CloseEpoch().
  size_t epoch_event_target = 0;
  /// Durability; see IngestDurability.
  IngestDurability durability;
  /// Recovery seeding (runtime::RecoveryManager::Resume): when set, the
  /// pipeline starts serving `resume_store` at `resume_generation` instead
  /// of publishing a fresh empty store as generation 1, and a WAL opened in
  /// durability.wal_dir continues the recovered epoch sequence.
  std::shared_ptr<const forms::FrozenTrackingForm> resume_store;
  uint64_t resume_generation = 0;
  /// Metrics sink; nullptr = the process-global registry.
  obs::MetricsRegistry* registry = nullptr;
};

/// Seals crossing events, in any order, into one run over `num_edges`
/// edges: a counting sort by CSR slot, an in-slot sort only where arrival
/// order broke, then the validating FrozenTrackingForm(times, offsets)
/// constructor — O(events + slots). The one scatter-sort of the write
/// path: the freezer seals each epoch with it, recovery the WAL tail.
forms::FrozenTrackingForm SealRun(
    size_t num_edges,
    std::span<const std::vector<mobility::CrossingEvent>> batches);

/// Concurrent ingest front-end over a FrozenStoreHandle. Push() is safe
/// from many threads. Background threads: one freezer, which commits each
/// epoch to the WAL and publishes it; with durability on, one seal worker,
/// which seals the epoch's run beside the freezer's WAL commit; and one
/// merge thread, which merges runs. The constructor publishes an empty
/// store (generation 1) so handle-mode readers always have something to
/// serve.
class IngestPipeline {
 public:
  /// `num_edges` must cover every edge the stream can mention (for a
  /// deployment this is SensorNetwork::TotalEdgeSpace()).
  explicit IngestPipeline(size_t num_edges,
                         IngestPipelineOptions options = {});

  /// Drains: closes a final epoch over any buffered events, waits for the
  /// freezer to publish it, and joins every thread (a merge in flight
  /// finishes first and is dropped). Callers must stop pushing first — see
  /// MakeSink() for the sink-lifetime contract.
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// The published-store handle readers attach to (SampledQueryProcessor /
  /// BatchQueryEngine handle-mode constructors).
  const forms::FrozenStoreHandle& handle() const { return handle_; }

  /// Buffers one in-order crossing event. Thread-safe; never blocks on
  /// the freezer and never drops the event.
  void Push(const mobility::CrossingEvent& event);

  /// Adapter for EventReorderBuffer: the buffer reorders, the pipeline
  /// ingests whatever the buffer releases.
  ///
  /// LIFETIME: the returned sink captures `this` unowned. It must not be
  /// invoked at or after the start of ~IngestPipeline() — destroy (or stop
  /// flushing into) every EventReorderBuffer holding the sink BEFORE the
  /// pipeline, exactly like handing out a raw pointer. The destructor
  /// cannot detect a concurrent Push(); that race is a use-after-free
  /// (tests/ingest_pipeline_test.cc pins the correct teardown order under
  /// TSan).
  core::EventReorderBuffer::Sink MakeSink() {
    return [this](const mobility::CrossingEvent& e) { Push(e); };
  }

  /// Requests an asynchronous epoch close; returns a ticket for
  /// WaitForTicket(). Multiple outstanding requests coalesce into one
  /// publish.
  uint64_t CloseEpoch();

  /// Blocks until the freezer has published (or skipped, when empty) every
  /// epoch up to `ticket`. `ticket` must have been returned by CloseEpoch()
  /// on this pipeline: waiting on a never-issued ticket is a programming
  /// error and CHECK-fails instead of blocking forever.
  void WaitForTicket(uint64_t ticket);

  /// Synchronous close: every event pushed before this call is queryable
  /// through handle() when it returns — and, with durability on, durable
  /// in the WAL.
  void CloseEpochAndWait() { WaitForTicket(CloseEpoch()); }

  /// Events pushed so far.
  uint64_t EventsIngested() const {
    return events_total_.load(std::memory_order_relaxed);
  }

  /// Epochs that actually published a new store (empty closes are skipped
  /// and do not bump the store generation).
  uint64_t EpochsPublished() const {
    return epochs_published_.load(std::memory_order_relaxed);
  }

  /// Seconds since the last store publish (construction counts as a
  /// publish). This is the serving staleness a /readyz probe or the
  /// `innet_refreeze_staleness_seconds` derived gauge reports: a healthy
  /// live pipeline keeps it near its epoch cadence, a wedged freezer lets
  /// it grow without bound.
  double SecondsSinceLastPublish() const;

 private:
  /// The merge rule: merge the newest adjacent pair of runs whose older
  /// run holds at most this many times the newer run's events.
  static constexpr size_t kMergeFactor = 2;

  struct Shard {
    std::mutex mutex;
    std::vector<mobility::CrossingEvent> events;
    /// Steady-clock micros of the push that found `events` empty: the
    /// oldest push of the shard's share of the next epoch.
    int64_t first_push_micros = 0;
  };
  /// A merge the merge thread finished: `merged` replaces the adjacent
  /// pair (older, newer) in the next generation.
  struct FinishedMerge {
    forms::FrozenRuns::Run older;
    forms::FrozenRuns::Run newer;
    forms::FrozenRuns::Run merged;
  };

  void FreezerLoop();
  void MergeLoop();
  /// Swaps out every shard buffer, seals the epoch as a run on the seal
  /// worker while appending + committing it to the WAL (when durable),
  /// and publishes the previous generation's runs — a finished merge
  /// swapped in — plus the new run. Returns false when the epoch was
  /// empty.
  bool PublishEpoch();
  /// WAL append + fsync'd commit for one snipped epoch. Publishes
  /// `generation` in the commit record. On I/O failure logs ERROR and
  /// disables the WAL (fail-open: serving continues, durability stops).
  void CommitEpochToWal(
      const std::vector<std::vector<mobility::CrossingEvent>>& taken,
      uint64_t generation);
  /// Swaps the finished merge, if any, into `runs` in place of its pair;
  /// true when there was one. The freezer clears it once the generation
  /// holding it is published.
  bool ApplyFinishedMerge(std::vector<forms::FrozenRuns::Run>* runs);

  size_t num_edges_;
  size_t shard_mask_;
  size_t epoch_event_target_;
  IngestDurability durability_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The buffers the freezer snipped last epoch, cleared: the next snip
  /// swaps them into the shards (freezer thread only).
  std::vector<std::vector<mobility::CrossingEvent>> spare_buffers_;
  forms::FrozenStoreHandle handle_;

  std::atomic<uint64_t> events_total_{0};
  std::atomic<uint64_t> epochs_published_{0};
  std::atomic<uint64_t> pending_since_close_{0};
  /// Steady-clock micros of the last publish (see SecondsSinceLastPublish).
  std::atomic<int64_t> last_publish_micros_{0};

  // Durability (freezer thread only, after construction).
  std::unique_ptr<io::EventLogWriter> wal_;
  uint64_t wal_epoch_ = 0;
  size_t epochs_since_snapshot_ = 0;
  /// Seals each epoch's run while the freezer commits it: one worker when
  /// a WAL is configured, serial (the freezer seals inline) otherwise.
  util::ThreadPool seal_worker_;

  // Freezer coordination: requested_/published_ are close tickets.
  std::mutex state_mutex_;
  std::condition_variable state_cv_;
  uint64_t requested_ = 0;
  uint64_t published_ = 0;
  bool stopping_ = false;
  std::thread freezer_;

  // Merge coordination: the freezer bumps publishes_ after each publish;
  // the merge thread works on the newest generation once the one holding
  // its previous merge is published.
  std::mutex merge_mutex_;
  std::condition_variable merge_cv_;
  std::optional<FinishedMerge> finished_merge_;
  uint64_t publishes_ = 0;
  bool merge_stopping_ = false;
  std::thread merger_;

  obs::Counter* events_counter_;
  obs::Counter* epochs_counter_;
  obs::Counter* wal_errors_counter_;
  obs::Histogram* refreeze_micros_;
  obs::Histogram* visibility_lag_micros_;
  obs::Gauge* generation_gauge_;
  obs::Gauge* runs_gauge_;
  obs::Gauge* epoch_events_gauge_;
};

}  // namespace innet::runtime

#endif  // INNET_RUNTIME_INGEST_PIPELINE_H_
