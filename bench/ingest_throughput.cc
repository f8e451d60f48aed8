// Live-ingestion benchmark: sustained events/sec through the reorder-buffer
// → IngestPipeline → sealed-run publish path, plus the invariants CI gates
// on (docs/PERFORMANCE.md §"Live ingestion"):
//
//   refreeze_drift == 0      the published runs count bit-identically to a
//                            from-scratch Freeze() of the same stream
//   warm_query_allocs == 0   a warm handle-mode reader performs zero heap
//                            allocations while the freezer publishes
//                            generations underneath it
//   recovery_drift == 0      the store recovered from the durable phase's
//                            WAL (snapshot + tail replay) is bit-identical
//                            to the scratch store
//
// The durable phase re-runs the same stream with a WAL group-commit on
// every epoch close (docs/PERFORMANCE.md §"Durability"), reporting
// ingest_events_per_sec_durable, durability_overhead_fraction,
// wal_fsync_p95_micros, wal_bytes_total, and recovery_replay_events.
//
// The history phase replays the stream for kLaps time-shifted laps without
// a WAL and reports refreeze_growth_x: the mean publish time over the last
// lap's epochs divided by the mean over the first lap's. A publish that
// costs O(epoch) keeps it near 1; one that copies the store grows with
// the history.
//
// Flags:
//   --tiny             small world (~120 junctions) for CI smoke runs
//   --json[=PATH]      machine-readable report (default BENCH_ingest.json)
//   --metrics-out=PATH dump the bench's metrics registry on exit
#include <cstdlib>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "core/event_buffer.h"
#include "core/query_processor.h"
#include "forms/frozen_tracking_form.h"
#include "forms/tracking_form.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/ingest_pipeline.h"
#include "runtime/recovery.h"
#include "sampling/samplers.h"
#include "util/alloc_probe.h"
#include "util/flags.h"
#include "util/timer.h"

namespace innet::bench {
namespace {

using mobility::CrossingEvent;

// The monitored slice of the network stream in delivery order, deduplicated
// on (time, edge, forward): the reorder buffer suppresses exact duplicates,
// so the scratch reference must see the same admitted set.
std::vector<CrossingEvent> MonitoredStream(const core::SensorNetwork& network,
                                           const core::Deployment& dep) {
  std::vector<CrossingEvent> events;
  for (const CrossingEvent& e : network.events()) {
    if (dep.graph().IsMonitored(e.edge)) events.push_back(e);
  }
  std::sort(events.begin(), events.end(),
            [](const CrossingEvent& a, const CrossingEvent& b) {
              return std::tie(a.time, a.edge, a.forward) <
                     std::tie(b.time, b.edge, b.forward);
            });
  events.erase(std::unique(events.begin(), events.end(),
                           [](const CrossingEvent& a, const CrossingEvent& b) {
                             return a.time == b.time && a.edge == b.edge &&
                                    a.forward == b.forward;
                           }),
               events.end());
  return events;
}

// Laps of the history phase.
constexpr size_t kLaps = 10;

// Exhaustive store comparison: per-slot counts plus the prefix count at
// every stored timestamp and a nudge on each side. Returns the number of
// mismatching probes (the bench's refreeze_drift — must be zero).
template <typename Store>  // FrozenRuns or FrozenTrackingForm.
uint64_t CountDrift(const Store& incremental,
                    const forms::TrackingForm& reference) {
  uint64_t drift = 0;
  if (incremental.TotalEvents() != reference.TotalEvents()) ++drift;
  for (graph::EdgeId e = 0; e < reference.num_edges(); ++e) {
    for (bool forward : {true, false}) {
      if (incremental.EventCount(e, forward) !=
          reference.EventCount(e, forward)) {
        ++drift;
        continue;
      }
      for (double t : reference.Sequence(e, forward)) {
        for (double probe :
             {t, std::nextafter(t, -1e30), std::nextafter(t, 1e30)}) {
          if (incremental.CountUpTo(e, forward, probe) !=
              reference.CountUpTo(e, forward, probe)) {
            ++drift;
          }
        }
      }
    }
  }
  return drift;
}

int Main(const util::FlagParser& flags) {
  bool tiny = flags.GetBool("tiny");
  core::FrameworkOptions world = DefaultWorld();
  size_t num_queries = 40;
  size_t reps = 3;
  if (tiny) {
    world.road.num_junctions = 120;
    world.road.world_size = 8000.0;
    world.traffic.num_trajectories = 300;
    world.traffic.horizon = 1800.0;
    num_queries = 16;
    reps = 2;
  }
  JsonReport report("ingest");
  report.Note("world", tiny ? "tiny" : "default");

  // The bench owns a private registry so the refreeze histogram it reads
  // back is exactly what its own pipelines observed.
  obs::MetricsRegistry registry;

  core::Framework framework(world);
  const core::SensorNetwork& network = framework.network();
  sampling::KdTreeSampler sampler;
  util::Rng rng = framework.ForkRng();
  core::Deployment dep = framework.DeployWithSampler(
      sampler, std::max<size_t>(1, network.NumSensors() / 5),
      core::DeploymentOptions{}, rng);
  std::vector<CrossingEvent> stream = MonitoredStream(network, dep);
  std::vector<core::RangeQuery> queries =
      MakeQueries(framework, 0.05, num_queries, 733);
  size_t num_edges = network.TotalEdgeSpace();
  std::printf("world: %zu junctions, %zu sensors, %zu monitored events\n\n",
              network.mobility().NumNodes(), network.NumSensors(),
              stream.size());
  report.Metric("monitored_events", static_cast<double>(stream.size()));

  // --- Phase 1: sustained ingest throughput. Replay the monitored stream
  // through the live front door (EventReorderBuffer sink → Push), epochs
  // auto-closing every ~1/32 of the stream so each epoch's sealed-run
  // publish (and the background merges) run CONCURRENTLY with ingestion;
  // the clock stops only after the final drain, so the figure includes
  // every publish. ---
  runtime::IngestPipelineOptions pipeline_options;
  pipeline_options.registry = &registry;
  pipeline_options.epoch_event_target = stream.size() / 32 + 1;
  std::unique_ptr<runtime::IngestPipeline> pipeline;
  double ingest_seconds = 0.0;
  uint64_t epochs = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    pipeline = std::make_unique<runtime::IngestPipeline>(num_edges,
                                                         pipeline_options);
    util::Timer timer;
    {
      core::EventReorderBuffer buffer(5.0, pipeline->MakeSink());
      for (const CrossingEvent& e : stream) buffer.Push(e);
      buffer.Flush();
    }
    pipeline->CloseEpochAndWait();
    ingest_seconds += timer.ElapsedSeconds();
    epochs += pipeline->EpochsPublished();
  }
  double total_events = static_cast<double>(stream.size() * reps);
  double events_per_sec = total_events / std::max(ingest_seconds, 1e-9);
  obs::Histogram& refreeze = registry.GetHistogram(
      "innet_refreeze_duration_micros",
      obs::Histogram::DurationBoundsMicros());
  double refreeze_mean =
      refreeze.Count() > 0
          ? refreeze.Sum() / static_cast<double>(refreeze.Count())
          : 0.0;
  std::printf(
      "ingest: %.0f events in %.3fs over %zu reps -> %.0f events/s | "
      "%llu epochs | refreeze mean=%.1fus p50=%.1fus p95=%.1fus\n",
      total_events, ingest_seconds, reps, events_per_sec,
      static_cast<unsigned long long>(epochs), refreeze_mean,
      refreeze.Percentile(0.5), refreeze.Percentile(0.95));
  report.Metric("ingest_reps", static_cast<double>(reps));
  report.Metric("ingest_wall_seconds", ingest_seconds);
  report.Metric("ingest_events_per_sec", events_per_sec);
  report.Metric("epochs_published", static_cast<double>(epochs));
  report.Metric("refreeze_mean_micros", refreeze_mean);
  report.Metric("refreeze_p50_micros", refreeze.Percentile(0.5));
  report.Metric("refreeze_p95_micros", refreeze.Percentile(0.95));

  // --- Phase 1a: history growth. Replay the stream for kLaps laps, each
  // shifted one horizon later so every slot stays ascending, and compare
  // the mean publish time of the last lap's epochs with the first lap's:
  // the store grows tenfold while each epoch stays the same size. ---
  std::vector<double> lap_mean_micros;
  {
    runtime::IngestPipeline laps(num_edges, pipeline_options);
    double lap_shift = stream.back().time + 1.0;
    for (size_t lap = 0; lap < kLaps; ++lap) {
      uint64_t count_before = refreeze.Count();
      double sum_before = refreeze.Sum();
      for (CrossingEvent e : stream) {
        e.time += static_cast<double>(lap) * lap_shift;
        laps.Push(e);
      }
      laps.CloseEpochAndWait();
      lap_mean_micros.push_back(
          (refreeze.Sum() - sum_before) /
          static_cast<double>(std::max<uint64_t>(
              1, refreeze.Count() - count_before)));
    }
  }
  double growth = lap_mean_micros.back() / lap_mean_micros.front();
  std::printf(
      "history: %zu laps, mean publish %.1fus in lap 1 -> %.1fus in lap %zu "
      "(growth %.2fx)\n",
      kLaps, lap_mean_micros.front(), lap_mean_micros.back(), kLaps, growth);
  report.Metric("refreeze_lap1_mean_micros", lap_mean_micros.front());
  report.Metric("refreeze_last_lap_mean_micros", lap_mean_micros.back());
  report.Metric("refreeze_growth_x", growth);

  // --- Phase 1b: durable ingest. The same front door with a WAL
  // group-commit on every epoch close and a snapshot every 2 commits. Each
  // rep starts from a fresh log (a resumed writer would otherwise append a
  // second copy of the stream); the last rep's directory feeds the
  // recovery-identity check below. ---
  char wal_template[] = "/tmp/innet_bench_wal_XXXXXX";
  const char* wal_root = ::mkdtemp(wal_template);
  if (wal_root == nullptr) {
    std::fprintf(stderr, "FAIL: cannot create WAL scratch directory\n");
    return 1;
  }
  std::string wal_dir = std::string(wal_root) + "/wal";
  runtime::IngestPipelineOptions durable_options = pipeline_options;
  durable_options.durability.wal_dir = wal_dir;
  durable_options.durability.snapshot_every_epochs = 2;
  double durable_seconds = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    std::filesystem::remove_all(wal_dir);
    pipeline = std::make_unique<runtime::IngestPipeline>(num_edges,
                                                         durable_options);
    util::Timer timer;
    {
      core::EventReorderBuffer buffer(5.0, pipeline->MakeSink());
      for (const CrossingEvent& e : stream) buffer.Push(e);
      buffer.Flush();
    }
    pipeline->CloseEpochAndWait();
    durable_seconds += timer.ElapsedSeconds();
  }
  double events_per_sec_durable =
      total_events / std::max(durable_seconds, 1e-9);
  double overhead =
      events_per_sec > 0.0
          ? std::max(0.0, 1.0 - events_per_sec_durable / events_per_sec)
          : 0.0;
  obs::Histogram& fsync_micros = registry.GetHistogram(
      "innet_wal_fsync_micros", obs::Histogram::DurationBoundsMicros());
  uint64_t wal_bytes = registry.GetCounter("innet_wal_bytes_total").Value();
  std::printf(
      "durable: %.0f events/s (%.1f%% overhead) | fsync p50=%.1fus "
      "p95=%.1fus | %llu WAL bytes over %zu reps\n",
      events_per_sec_durable, overhead * 100.0,
      fsync_micros.Percentile(0.5), fsync_micros.Percentile(0.95),
      static_cast<unsigned long long>(wal_bytes), reps);
  report.Metric("ingest_events_per_sec_durable", events_per_sec_durable);
  report.Metric("durability_overhead_fraction", overhead);
  report.Metric("wal_fsync_p50_micros", fsync_micros.Percentile(0.5));
  report.Metric("wal_fsync_p95_micros", fsync_micros.Percentile(0.95));
  report.Metric("wal_bytes_total", static_cast<double>(wal_bytes));

  // --- Phase 2: identity. The last rep's published runs must count
  // bit-identically to a from-scratch Freeze() of the admitted stream, and
  // a handle-mode processor must answer exactly like the scratch one. ---
  forms::TrackingForm scratch_tracking(num_edges);
  for (const CrossingEvent& e : stream) {
    scratch_tracking.RecordTraversal(e.edge, e.forward, e.time);
  }
  forms::FrozenStoreHandle::Snapshot published = pipeline->handle().Acquire();
  uint64_t drift = CountDrift(*published.store, scratch_tracking);
  forms::FrozenTrackingForm scratch = scratch_tracking.Freeze();
  core::SampledQueryProcessor reference(dep.graph(), scratch);
  core::SampledQueryProcessor live(dep.graph(), pipeline->handle());
  for (const core::RangeQuery& q : queries) {
    for (core::BoundMode bound :
         {core::BoundMode::kLower, core::BoundMode::kUpper}) {
      double a = reference.Answer(q, core::CountKind::kStatic, bound).estimate;
      double b = live.Answer(q, core::CountKind::kStatic, bound).estimate;
      if (a != b) ++drift;
    }
  }
  std::printf("identity: refreeze drift %llu probes (want 0) at generation "
              "%llu\n",
              static_cast<unsigned long long>(drift),
              static_cast<unsigned long long>(published.generation));
  report.Metric("refreeze_drift", static_cast<double>(drift));
  report.Metric("store_generation", static_cast<double>(published.generation));

  // --- Phase 2b: recovery identity. Recover from the durable phase's WAL
  // (newest snapshot + tail replay) and hold the result to the same
  // exhaustive comparison: recovery_drift must be zero. ---
  runtime::RecoveryOptions recovery_options;
  recovery_options.wal_dir = wal_dir;
  recovery_options.num_edges = num_edges;
  recovery_options.registry = &registry;
  util::Timer recovery_timer;
  util::StatusOr<runtime::RecoveredState> recovered =
      runtime::RecoveryManager(recovery_options).Recover();
  double recovery_seconds = recovery_timer.ElapsedSeconds();
  uint64_t recovery_drift = 1;
  uint64_t recovery_replay_events = 0;
  if (recovered.ok()) {
    recovery_drift = CountDrift(*recovered->store, scratch_tracking);
    recovery_replay_events = recovered->replayed_events;
    std::printf(
        "recovery: epoch %llu generation %llu in %.3fs | %llu events from "
        "snapshot + %llu replayed | drift %llu probes (want 0)\n",
        static_cast<unsigned long long>(recovered->durable_epoch),
        static_cast<unsigned long long>(recovered->generation),
        recovery_seconds,
        static_cast<unsigned long long>(recovered->snapshot_events),
        static_cast<unsigned long long>(recovered->replayed_events),
        static_cast<unsigned long long>(recovery_drift));
  } else {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
  }
  report.Metric("recovery_seconds", recovery_seconds);
  report.Metric("recovery_replay_events",
                static_cast<double>(recovery_replay_events));
  report.Metric("recovery_drift", static_cast<double>(recovery_drift));
  std::filesystem::remove_all(wal_root);

  // --- Phase 3: zero-allocation warm reads under concurrent ingest. A
  // handle-mode processor with a grown workspace serves queries on this
  // thread while a writer thread streams the remaining three quarters of
  // the stream and the freezer publishes generations underneath. The
  // thread-local probe counts only THIS thread's allocations, so freezer
  // rebuild allocations (by design off the read path) don't pollute it. ---
  pipeline = std::make_unique<runtime::IngestPipeline>(num_edges,
                                                       pipeline_options);
  size_t quarter = stream.size() / 4;
  for (size_t i = 0; i < quarter; ++i) pipeline->Push(stream[i]);
  pipeline->CloseEpochAndWait();
  core::SampledQueryProcessor warm(dep.graph(), pipeline->handle());
  core::QueryWorkspace workspace;
  for (int round = 0; round < 2; ++round) {  // Warm-up: grow all scratch.
    for (const core::RangeQuery& q : queries) {
      warm.Answer(q, core::CountKind::kStatic, core::BoundMode::kLower,
                  nullptr, &workspace);
    }
  }
  uint64_t generation_before = pipeline->handle().Generation();
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (size_t i = quarter; i < stream.size(); ++i) {
      pipeline->Push(stream[i]);
    }
    pipeline->CloseEpochAndWait();
    writer_done.store(true, std::memory_order_release);
  });
  uint64_t warm_queries = 0;
  double warm_sum = 0.0;
  util::ThreadAllocProbe probe;
  while (!writer_done.load(std::memory_order_acquire)) {
    for (const core::RangeQuery& q : queries) {
      warm_sum += warm.Answer(q, core::CountKind::kStatic,
                              core::BoundMode::kLower, nullptr, &workspace)
                      .estimate;
      ++warm_queries;
    }
  }
  uint64_t warm_allocs = probe.Delta();
  writer.join();
  uint64_t swaps_seen = pipeline->handle().Generation() - generation_before;
  std::printf(
      "concurrent warm path: %llu queries while ingesting, %llu heap "
      "allocations (want 0), %llu store swaps observed (checksum %.17g)\n",
      static_cast<unsigned long long>(warm_queries),
      static_cast<unsigned long long>(warm_allocs),
      static_cast<unsigned long long>(swaps_seen), warm_sum);
  report.Metric("warm_queries", static_cast<double>(warm_queries));
  report.Metric("warm_query_allocs", static_cast<double>(warm_allocs));
  report.Metric("swaps_during_warm_reads", static_cast<double>(swaps_seen));

  if (!report.WriteFlagged(flags)) return 1;
  std::string metrics_out = flags.GetString("metrics-out");
  if (!metrics_out.empty() &&
      !obs::ExportMetricsToFile(registry, metrics_out)) {
    return 1;
  }
  if (drift != 0) {
    std::fprintf(stderr,
                 "FAIL: the published runs drifted from the scratch "
                 "freeze on %llu probes\n",
                 static_cast<unsigned long long>(drift));
    return 1;
  }
  if (warm_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu heap allocations on the warm read path during "
                 "concurrent ingest (budget: 0)\n",
                 static_cast<unsigned long long>(warm_allocs));
    return 1;
  }
  if (recovery_drift != 0) {
    std::fprintf(stderr,
                 "FAIL: store recovered from the WAL drifted from the "
                 "scratch freeze on %llu probes\n",
                 static_cast<unsigned long long>(recovery_drift));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace innet::bench

int main(int argc, char** argv) {
  innet::util::FlagParser flags(argc, argv);
  return innet::bench::Main(flags);
}
