// RCU-style published handle over an immutable frozen store.
//
// The live-ingest write path (runtime::IngestPipeline) seals each epoch as
// a run off the hot path and swaps in the next generation — a
// forms::FrozenRuns sharing every older run with the previous one — by
// bumping a generation counter; readers pin a snapshot with one shared_ptr
// copy and keep serving from it — the swap never blocks a reader and a
// reader never blocks the swap. Reclamation is the shared_ptr refcount: a
// generation, and any run no later generation shares, is destroyed when
// the last reader snapshot holding it drops.
//
// Read protocol (the generation-stamped acquire used by
// core::SampledQueryProcessor and runtime::BatchQueryEngine):
//
//   if (handle.Generation() != cached_generation)   // one atomic load
//     snapshot = handle.Acquire();                  // refcount bump, no heap
//   ... answer queries against snapshot.store ...
//
// The cheap-path check allocates nothing and touches one cache line, so it
// is safe inside the zero-alloc warm query loop.
#ifndef INNET_FORMS_STORE_HANDLE_H_
#define INNET_FORMS_STORE_HANDLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "forms/frozen_runs.h"
#include "forms/frozen_tracking_form.h"

namespace innet::forms {

/// Generation-stamped double-buffer handle. Publish() installs a new store
/// and bumps the generation; Acquire() returns a consistent {store,
/// generation} pair. Generation 0 means "nothing published yet".
class FrozenStoreHandle {
 public:
  struct Snapshot {
    std::shared_ptr<const FrozenRuns> store;
    uint64_t generation = 0;
  };

  FrozenStoreHandle() = default;

  FrozenStoreHandle(const FrozenStoreHandle&) = delete;
  FrozenStoreHandle& operator=(const FrozenStoreHandle&) = delete;

  /// Current generation; acquire-ordered so a reader that observes a new
  /// generation also observes the store published with it.
  uint64_t Generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Pins the current store. The returned shared_ptr keeps the epoch alive
  /// for as long as the caller holds it, independent of later Publish()es.
  Snapshot Acquire() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {store_, generation_.load(std::memory_order_relaxed)};
  }

  /// Installs `store` as the next generation and returns that generation.
  /// The previous store stays alive until its last snapshot drops.
  uint64_t Publish(std::shared_ptr<const FrozenRuns> store) {
    std::lock_guard<std::mutex> lock(mutex_);
    store_ = std::move(store);
    uint64_t next = generation_.load(std::memory_order_relaxed) + 1;
    generation_.store(next, std::memory_order_release);
    return next;
  }

  /// Recovery seeding ONLY (runtime::RecoveryManager): installs `store`,
  /// as a one-run generation, at an explicit `generation` so a restarted
  /// pipeline resumes the generation sequence of the run it is restoring.
  /// Must not be used while readers may hold this handle — it rewinds the
  /// monotone generation contract that Publish() maintains.
  void Restore(std::shared_ptr<const FrozenTrackingForm> store,
               uint64_t generation) {
    size_t num_edges = store->num_edges();
    auto runs = std::make_shared<const FrozenRuns>(
        num_edges, std::vector<FrozenRuns::Run>{std::move(store)});
    std::lock_guard<std::mutex> lock(mutex_);
    store_ = std::move(runs);
    generation_.store(generation, std::memory_order_release);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const FrozenRuns> store_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace innet::forms

#endif  // INNET_FORMS_STORE_HANDLE_H_
