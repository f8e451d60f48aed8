#include "runtime/ingest_pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "faults/crash_points.h"
#include "io/serialize.h"
#include "obs/flight_recorder.h"
#include "util/logging.h"

namespace innet::runtime {

namespace {

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::string SnapshotPath(const std::string& dir, uint64_t epoch) {
  char name[64];
  std::snprintf(name, sizeof(name), "snap-%016llu.snap",
                static_cast<unsigned long long>(epoch));
  return dir + "/" + name;
}

}  // namespace

forms::FrozenTrackingForm SealRun(
    size_t num_edges,
    std::span<const std::vector<mobility::CrossingEvent>> batches) {
  // Scatter: count per slot, prefix-sum into CSR offsets, then place each
  // event. Batch order is preserved, so an in-order stream lands already
  // sorted and the in-slot sort below is a no-op check.
  size_t num_slots = 2 * num_edges;
  std::vector<uint64_t> offsets(num_slots + 1, 0);
  for (const auto& batch : batches) {
    for (const mobility::CrossingEvent& e : batch) {
      size_t slot = forms::FrozenTrackingForm::Slot(e.edge, e.forward);
      INNET_CHECK(slot < num_slots);
      ++offsets[slot + 1];
    }
  }
  for (size_t s = 0; s < num_slots; ++s) offsets[s + 1] += offsets[s];
  std::vector<double> times(offsets[num_slots]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& batch : batches) {
    for (const mobility::CrossingEvent& e : batch) {
      times[cursor[forms::FrozenTrackingForm::Slot(e.edge, e.forward)]++] =
          e.time;
    }
  }
  // Sort slots whose events arrived out of order (multiple sinks with
  // skewed watermarks interleave arbitrarily within a slot).
  for (size_t s = 0; s < num_slots; ++s) {
    double* begin = times.data() + offsets[s];
    double* end = times.data() + offsets[s + 1];
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
  }
  return forms::FrozenTrackingForm(std::move(times), std::move(offsets));
}

IngestPipeline::IngestPipeline(size_t num_edges, IngestPipelineOptions options)
    : num_edges_(num_edges),
      epoch_event_target_(options.epoch_event_target),
      durability_(options.durability),
      seal_worker_(options.durability.wal_dir.empty() ? 0 : 1) {
  size_t shards = RoundUpPow2(std::max<size_t>(1, options.shards));
  shard_mask_ = shards - 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }

  obs::MetricsRegistry& registry =
      options.registry ? *options.registry : obs::MetricsRegistry::Global();
  events_counter_ = &registry.GetCounter(
      "innet_ingest_events_total", "Crossing events accepted by Push()");
  epochs_counter_ = &registry.GetCounter(
      "innet_ingest_epochs_total", "Epochs that published a new store");
  wal_errors_counter_ = &registry.GetCounter(
      "innet_wal_errors_total",
      "WAL I/O failures (durability disabled after the first)");
  refreeze_micros_ = &registry.GetHistogram(
      "innet_refreeze_duration_micros", obs::Histogram::DurationBoundsMicros(),
      "Publish-path wall time per published epoch: buffer snip, WAL commit, "
      "run seal, publish");
  visibility_lag_micros_ = &registry.GetHistogram(
      "innet_ingest_visibility_lag_micros",
      obs::Histogram::DurationBoundsMicros(),
      "Per published epoch: publish time minus the Push time of the "
      "epoch's oldest event");
  generation_gauge_ = &registry.GetGauge(
      "innet_store_generation", "Generation of the published frozen store");
  runs_gauge_ = &registry.GetGauge(
      "innet_store_runs", "Sealed runs in the published store generation");
  epoch_events_gauge_ = &registry.GetGauge(
      "innet_ingest_epoch_events", "Events in the most recent published epoch");

  if (!durability_.wal_dir.empty()) {
    io::EventLogOptions log_options;  // 8 MiB segments, fsync per commit.
    log_options.registry = options.registry;
    util::StatusOr<std::unique_ptr<io::EventLogWriter>> writer =
        io::EventLogWriter::Open(durability_.wal_dir, log_options);
    if (!writer.ok()) {
      INNET_LOG(ERROR) << "cannot open WAL: " << writer.status().message();
    }
    INNET_CHECK(writer.ok());
    wal_ = std::move(*writer);
    wal_epoch_ = wal_->DurableEpoch();
  }

  if (options.resume_store != nullptr) {
    // Recovery seeding: serve the recovered store at its recovered
    // generation; the WAL (scanned above) continues the epoch sequence.
    INNET_CHECK(options.resume_store->num_edges() == num_edges_);
    handle_.Restore(options.resume_store, options.resume_generation);
    generation_gauge_->Set(static_cast<double>(options.resume_generation));
    obs::FlightRecorder::Global().Note(
        "store", "restore_generation",
        static_cast<double>(options.resume_generation));
  } else {
    // Publish generation 1 (no runs) so readers never see a null handle,
    // then start the freezer.
    handle_.Publish(std::make_shared<const forms::FrozenRuns>(
        num_edges_, std::vector<forms::FrozenRuns::Run>{}));
    generation_gauge_->Set(1.0);
    obs::FlightRecorder::Global().Note("store", "publish_generation", 1.0);
  }
  runs_gauge_->Set(static_cast<double>(handle_.Acquire().store->num_runs()));
  last_publish_micros_.store(SteadyMicros(), std::memory_order_relaxed);
  freezer_ = std::thread([this] { FreezerLoop(); });
  merger_ = std::thread([this] { MergeLoop(); });
}

double IngestPipeline::SecondsSinceLastPublish() const {
  int64_t last = last_publish_micros_.load(std::memory_order_relaxed);
  return static_cast<double>(SteadyMicros() - last) * 1e-6;
}

IngestPipeline::~IngestPipeline() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++requested_;  // Final drain of whatever is still buffered.
    stopping_ = true;
  }
  state_cv_.notify_all();
  freezer_.join();
  {
    std::lock_guard<std::mutex> lock(merge_mutex_);
    merge_stopping_ = true;
  }
  merge_cv_.notify_all();
  merger_.join();
}

void IngestPipeline::Push(const mobility::CrossingEvent& event) {
  INNET_DCHECK(event.edge < num_edges_);
  Shard& shard = *shards_[static_cast<size_t>(event.edge) & shard_mask_];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // The clock is read once per shard and epoch: by the push that opens
    // the buffer, whose event is the oldest the buffer will hand over.
    if (shard.events.empty()) shard.first_push_micros = SteadyMicros();
    shard.events.push_back(event);
  }
  events_total_.fetch_add(1, std::memory_order_relaxed);
  events_counter_->Increment();
  if (epoch_event_target_ != 0) {
    uint64_t now =
        pending_since_close_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (now >= epoch_event_target_) {
      pending_since_close_.fetch_sub(now, std::memory_order_relaxed);
      CloseEpoch();
    }
  }
}

uint64_t IngestPipeline::CloseEpoch() {
  uint64_t ticket;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ticket = ++requested_;
  }
  state_cv_.notify_all();
  return ticket;
}

void IngestPipeline::WaitForTicket(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  // A ticket that was never issued would never be published: waiting on it
  // is a deadlock, not a wait. Fail loudly instead.
  INNET_CHECK(ticket <= requested_ && "ticket was never issued by CloseEpoch");
  state_cv_.wait(lock, [&] { return published_ >= ticket; });
}

void IngestPipeline::FreezerLoop() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    state_cv_.wait(lock, [&] { return requested_ > published_ || stopping_; });
    if (requested_ > published_) {
      // Coalesce: one publish covers every request made before the shard
      // swap below — their events are all in the buffers we snip.
      uint64_t target = requested_;
      lock.unlock();
      PublishEpoch();
      lock.lock();
      published_ = target;
      state_cv_.notify_all();
      continue;
    }
    if (stopping_) return;
  }
}

void IngestPipeline::MergeLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(merge_mutex_);
  for (;;) {
    merge_cv_.wait(lock, [&] {
      return merge_stopping_ ||
             (publishes_ != seen && !finished_merge_.has_value());
    });
    if (merge_stopping_) return;
    seen = publishes_;
    lock.unlock();
    // The newest generation's runs, oldest first. The freezer only appends
    // to this list until it takes our merge, so the pair stays adjacent.
    forms::FrozenStoreHandle::Snapshot snap = handle_.Acquire();
    const std::vector<forms::FrozenRuns::Run>& runs = snap.store->runs();
    std::optional<FinishedMerge> done;
    for (size_t i = runs.size(); i-- > 1;) {
      if (runs[i - 1]->TotalEvents() <=
          kMergeFactor * runs[i]->TotalEvents()) {
        done = FinishedMerge{
            runs[i - 1], runs[i],
            std::make_shared<const forms::FrozenTrackingForm>(*runs[i - 1],
                                                              *runs[i])};
        break;
      }
    }
    lock.lock();
    finished_merge_ = std::move(done);
  }
}

bool IngestPipeline::ApplyFinishedMerge(
    std::vector<forms::FrozenRuns::Run>* runs) {
  std::lock_guard<std::mutex> lock(merge_mutex_);
  if (!finished_merge_.has_value()) return false;
  const FinishedMerge& merge = *finished_merge_;
  for (size_t i = 0; i + 1 < runs->size(); ++i) {
    if ((*runs)[i] == merge.older && (*runs)[i + 1] == merge.newer) {
      (*runs)[i] = merge.merged;
      runs->erase(runs->begin() + static_cast<std::ptrdiff_t>(i) + 1);
      return true;
    }
  }
  INNET_DCHECK(false && "a finished merge's pair is always adjacent");
  return true;
}

void IngestPipeline::CommitEpochToWal(
    const std::vector<std::vector<mobility::CrossingEvent>>& taken,
    uint64_t generation) {
  util::Status status = util::Status::Ok();
  for (const auto& batch : taken) {
    if (batch.empty()) continue;
    status = wal_->Append(batch);
    if (!status.ok()) break;
  }
  if (status.ok()) {
    status = wal_->CommitEpoch(wal_epoch_ + 1, generation);
  }
  if (!status.ok()) {
    // Fail-open: keep serving from memory, stop claiming durability. A
    // full disk or dead device should degrade the guarantee, not the
    // service; the counter and the ERROR make the degradation loud.
    INNET_LOG(ERROR) << "WAL write failed, disabling durability: "
                     << status.message();
    wal_errors_counter_->Increment();
    obs::FlightRecorder::Global().Note("wal", "error", 1.0);
    wal_.reset();
    return;
  }
  ++wal_epoch_;
}

bool IngestPipeline::PublishEpoch() {
  auto start = std::chrono::steady_clock::now();

  // Snip every shard's buffer under all shard locks at once (taken in
  // shard order; Push holds one at a time). Each event lands in exactly
  // one taken batch, and the epoch is a consistent cut: no push reaches a
  // generation without every push that happened before it, so a single
  // writer's generations are prefixes of its push order.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mutex);
  // Last epoch's buffers go back in, cleared but with their capacity.
  std::vector<std::vector<mobility::CrossingEvent>> taken =
      std::move(spare_buffers_);
  taken.resize(shards_.size());
  size_t total = 0;
  int64_t oldest_push = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < shards_.size(); ++i) {
    taken[i].swap(shards_[i]->events);
    if (!taken[i].empty()) {
      oldest_push = std::min(oldest_push, shards_[i]->first_push_micros);
    }
    total += taken[i].size();
  }
  locks.clear();
  auto recycle = [&] {
    for (auto& buffer : taken) buffer.clear();
    spare_buffers_ = std::move(taken);
  };
  if (total == 0) {
    recycle();
    return false;
  }
  // The epoch becomes its own run, sealed in O(epoch + slots) whatever the
  // stored history, on the seal worker while this thread commits the epoch
  // below; both only read `taken`.
  forms::FrozenRuns::Run run;
  seal_worker_.Submit([&] {
    run = std::make_shared<const forms::FrozenTrackingForm>(
        SealRun(num_edges_, taken));
  });

  // Durability BEFORE visibility: the epoch's commit record is fsync'd
  // before readers can observe the generation it publishes, so every
  // generation ever served is recoverable. (A crash in between recovers to
  // a state slightly AHEAD of what was served — durable ⊇ served.)
  uint64_t generation = handle_.Generation() + 1;
  if (wal_ != nullptr) CommitEpochToWal(taken, generation);
  seal_worker_.Wait();
  recycle();

  // The generation shares every older run with the last one, a finished
  // merge swapped in.
  std::vector<forms::FrozenRuns::Run> runs = handle_.Acquire().store->runs();
  bool took_merge = ApplyFinishedMerge(&runs);
  runs.push_back(std::move(run));
  auto next =
      std::make_shared<const forms::FrozenRuns>(num_edges_, std::move(runs));
  INNET_CRASH_POINT("publish:pre-publish");
  uint64_t published_generation = handle_.Publish(next);
  INNET_DCHECK(published_generation == generation);
  (void)published_generation;
  int64_t published_micros = SteadyMicros();
  {
    // The merge thread looks again only at a generation holding its
    // last merge: it may not pick runs that merge already consumed.
    std::lock_guard<std::mutex> lock(merge_mutex_);
    if (took_merge) finished_merge_.reset();
    ++publishes_;
  }
  merge_cv_.notify_one();

  // Periodic snapshot so recovery replays a short tail, not the full log.
  if (wal_ != nullptr && durability_.snapshot_every_epochs > 0 &&
      ++epochs_since_snapshot_ >= durability_.snapshot_every_epochs) {
    io::FrozenSnapshotMeta meta;
    meta.generation = generation;
    meta.covered_epoch = wal_epoch_;
    meta.covered_events = wal_->DurableEvents();
    util::Status status = io::SaveFrozenSnapshot(
        *next, meta, SnapshotPath(durability_.wal_dir, wal_epoch_));
    if (status.ok()) {
      epochs_since_snapshot_ = 0;
    } else {
      INNET_LOG(WARN) << "snapshot failed (recovery will replay more WAL): "
                      << status.message();
    }
  }

  epochs_published_.fetch_add(1, std::memory_order_relaxed);
  epochs_counter_->Increment();
  generation_gauge_->Set(static_cast<double>(generation));
  runs_gauge_->Set(static_cast<double>(next->num_runs()));
  epoch_events_gauge_->Set(static_cast<double>(total));
  last_publish_micros_.store(published_micros, std::memory_order_relaxed);
  visibility_lag_micros_->Observe(
      static_cast<double>(published_micros - oldest_push));
  obs::FlightRecorder::Global().Note("store", "publish_generation",
                                     static_cast<double>(generation));
  refreeze_micros_->Observe(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return true;
}

}  // namespace innet::runtime
