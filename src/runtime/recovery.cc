#include "runtime/recovery.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "forms/tracking_form.h"
#include "io/event_log.h"
#include "io/serialize.h"
#include "util/logging.h"

namespace innet::runtime {

namespace {

// Snapshot files under `dir` (written by IngestPipeline as
// snap-<epoch>.snap), newest first. A missing directory is an empty list.
std::vector<std::pair<uint64_t, std::string>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> snapshots;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return snapshots;
  while (struct dirent* entry = ::readdir(d)) {
    unsigned long long epoch = 0;
    int consumed = 0;
    if (std::sscanf(entry->d_name, "snap-%16llu.snap%n", &epoch, &consumed) ==
            1 &&
        entry->d_name[consumed] == '\0') {
      snapshots.emplace_back(epoch, dir + "/" + entry->d_name);
    }
  }
  ::closedir(d);
  std::sort(snapshots.rbegin(), snapshots.rend());
  return snapshots;
}

}  // namespace

RecoveryManager::RecoveryManager(RecoveryOptions options)
    : options_(std::move(options)) {
  INNET_CHECK(options_.num_edges > 0);
}

util::StatusOr<RecoveredState> RecoveryManager::Recover() {
  size_t num_slots = 2 * options_.num_edges;
  obs::MetricsRegistry& registry = options_.registry
                                       ? *options_.registry
                                       : obs::MetricsRegistry::Global();
  obs::Counter& replay_counter = registry.GetCounter(
      "innet_recovery_replay_events",
      "WAL-tail events replayed past the snapshot during recovery");

  // Newest valid snapshot wins; an unreadable or foreign one falls back to
  // the next — a damaged snapshot costs replay time, never correctness.
  std::shared_ptr<const forms::FrozenTrackingForm> base;
  io::FrozenSnapshotMeta snapshot_meta;
  bool used_snapshot = false;
  for (const auto& [epoch, path] : ListSnapshots(options_.wal_dir)) {
    util::StatusOr<io::LoadedFrozenSnapshot> loaded =
        io::LoadFrozenSnapshot(path);
    if (!loaded.ok()) {
      INNET_LOG(WARN) << "ignoring unusable snapshot " << path << ": "
                      << loaded.status().message();
      continue;
    }
    if (loaded->store.RawOffsets().size() - 1 != num_slots) {
      INNET_LOG(WARN) << "ignoring snapshot " << path
                      << ": slot count mismatch (foreign edge space)";
      continue;
    }
    snapshot_meta = loaded->meta;
    base = std::make_shared<forms::FrozenTrackingForm>(
        std::move(loaded->store));
    used_snapshot = true;
    break;
  }

  util::StatusOr<io::ReplayedEventLog> replay = io::ReplayEventLog(
      options_.wal_dir, used_snapshot ? snapshot_meta.covered_events : 0);
  if (!replay.ok() && used_snapshot) {
    // A snapshot that outruns or contradicts the log means the log lost
    // data behind it; the log is the source of truth, so fall back to a
    // full replay without the snapshot.
    INNET_LOG(WARN) << "snapshot inconsistent with WAL ("
                    << replay.status().message()
                    << "); replaying the full log";
    used_snapshot = false;
    base = nullptr;
    replay = io::ReplayEventLog(options_.wal_dir, 0);
  }
  if (!replay.ok()) {
    if (replay.status().code() == util::StatusCode::kNotFound) {
      // No log at all: recover to the state every fresh pipeline starts
      // from — the empty store at generation 1.
      RecoveredState state;
      forms::TrackingForm empty(options_.num_edges);
      state.store =
          std::make_shared<forms::FrozenTrackingForm>(empty.Freeze());
      return state;
    }
    return replay.status();
  }

  if (base == nullptr) {
    forms::TrackingForm empty(options_.num_edges);
    base = std::make_shared<forms::FrozenTrackingForm>(empty.Freeze());
  }

  RecoveredState state;
  state.durable_epoch = replay->durable_epoch;
  state.durable_events = replay->durable_events;
  state.replayed_events = replay->events.size();
  state.snapshot_events = used_snapshot ? snapshot_meta.covered_events : 0;
  state.used_snapshot = used_snapshot;
  if (!replay->commits.empty()) {
    state.generation = replay->generation;
  } else if (used_snapshot) {
    state.generation = snapshot_meta.generation;
  }

  if (replay->events.empty()) {
    state.store = std::move(base);
  } else {
    // The whole tail as one run, merged onto the base: bit-identical to
    // replaying it epoch by epoch, since the frozen content depends only on
    // the per-slot sorted sequences, which epoch partitioning leaves alone.
    forms::FrozenTrackingForm tail = SealRun(
        options_.num_edges,
        std::span<const std::vector<mobility::CrossingEvent>>(&replay->events,
                                                              1));
    state.store = std::make_shared<forms::FrozenTrackingForm>(*base, tail);
  }
  replay_counter.Increment(state.replayed_events);
  INNET_LOG(INFO) << "recovered epoch " << state.durable_epoch
                  << " generation " << state.generation << " ("
                  << state.durable_events << " durable events, "
                  << state.replayed_events << " replayed past snapshot)";
  return state;
}

util::StatusOr<std::unique_ptr<IngestPipeline>> RecoveryManager::Resume(
    IngestPipelineOptions pipeline_options, RecoveredState* state_out) {
  util::StatusOr<RecoveredState> recovered = Recover();
  if (!recovered.ok()) return recovered.status();
  if (state_out != nullptr) *state_out = *recovered;
  pipeline_options.durability.wal_dir = options_.wal_dir;
  pipeline_options.resume_store = recovered->store;
  pipeline_options.resume_generation = recovered->generation;
  if (pipeline_options.registry == nullptr) {
    pipeline_options.registry = options_.registry;
  }
  return std::make_unique<IngestPipeline>(options_.num_edges,
                                          pipeline_options);
}

}  // namespace innet::runtime
