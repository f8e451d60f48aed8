// innet_query — ad-hoc spatiotemporal range count queries over saved
// datasets.
//
//   innet_query --graph city.bin --trips trips.bin
//       --rect 2000,2000,8000,8000 --t1 0 --t2 3600
//       [--kind static|transient] [--sample-fraction 0.1]
//       [--sampler kd-tree] [--bound lower|upper] [--store exact|learned]
//
// Without --sample-fraction the query runs exactly on the unsampled graph.
//
// Batch mode: --batch FILE answers many queries through the parallel
// BatchQueryEngine instead of --rect. Each line of FILE is
// "x0,y0,x1,y1,t1,t2" (blank lines and #-comments skipped); --threads
// sets the worker count and --cache the boundary-cache capacity.
// --ingest-epochs N serves the batch from a live IngestPipeline instead of
// the batch-built store: the monitored events replay in N epochs, each
// published as a sealed run, and the engine follows the generations
// (docs/API.md §"Live ingestion quickstart").
//
// Durability (docs/FAULTS.md §"Process & storage faults"): with
// --ingest-epochs, --wal-dir DIR group-commits every epoch to a
// write-ahead log before it becomes visible, and --snapshot-every N
// bounds recovery replay with periodic frozen-store snapshots. After a
// crash, --recover --wal-dir DIR rebuilds the last durable store
// (snapshot + tail replay) and serves the batch from it.
//
// Observability (docs/OBSERVABILITY.md): --metrics-out=PATH dumps the
// process metrics registry on exit (Prometheus text format, or JSON lines
// when PATH ends in .json/.jsonl); --log-level info|warn|error|off sets
// diagnostic verbosity. Batch mode keeps 1 of every --trace-sample N
// queries' cost profiles (default 1) in a trace ring whenever one of its
// readers is up: --trace-out=PATH writes one JSON object per sampled query
// with its stage breakdown, --trace-chrome=PATH the same traces as a Chrome
// trace-event array for chrome://tracing / Perfetto, and /traces serves
// them under --serve-telemetry. Trace flags without batch mode, and
// --trace-sample without a reader, are rejected.
//
// Cost accounting (docs/OBSERVABILITY.md §9): batch mode accumulates a
// per-query cost profile into a lock-free digest table (served at /queryz
// and summarized in /varz when --serve-telemetry is up).
// --slowlog-out=FILE emits a rate-limited JSON-lines record for every
// query crossing --slowlog-threshold-ms (default 10ms), carrying the cost
// profile and the query's EXPLAIN provenance.
//
// Live telemetry (docs/OBSERVABILITY.md §"Live telemetry & SLOs"):
// --serve-telemetry PORT starts an embedded HTTP endpoint on
// 127.0.0.1:PORT (0 = ephemeral; the bound port prints on stderr) serving
// /metrics, /healthz, /readyz, /varz, and /traces while the batch runs,
// backed by a background time-series collector. --slo-config FILE loads
// burn-rate objectives evaluated on every collector tick;
// --telemetry-linger SEC keeps the endpoint up after the batch finishes so
// scrapers can observe the final state; --flight-dir DIR places the
// crash-time flight-recorder dumps (default "."); --readyz-staleness SEC
// adds a /readyz probe failing when no store published for SEC seconds.
//
// EXPLAIN (docs/OBSERVABILITY.md §"Accuracy & EXPLAIN"): --explain replaces
// the human-readable answer lines with one deterministic JSON provenance
// object per answered configuration (resolved faces, dead space, boundary
// size, store family, cache path, interval). --explain-svg=PATH
// additionally renders the resolved face union and integrated boundary
// over the network (sampled runs only).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "innet.h"

namespace innet {
namespace {

int Fail(const std::string& message) {
  INNET_LOG(ERROR) << message;
  return 1;
}

// Shared exit path: dump the process registry when --metrics-out was given
// and warn about unrecognized flags.
int Finish(util::FlagParser& flags, const std::string& metrics_out) {
  if (!metrics_out.empty()) {
    // Build identity and uptime ride along on every file export, matching
    // what a live /metrics scrape reports.
    obs::Gauge& uptime =
        obs::RegisterBuildInfo(obs::MetricsRegistry::Global());
    uptime.Set(obs::UptimeSeconds());
    if (!obs::ExportMetricsToFile(obs::MetricsRegistry::Global(),
                                  metrics_out)) {
      return 1;
    }
  }
  for (const std::string& unused : flags.UnusedFlags()) {
    INNET_LOG(WARN) << "unused flag --" << unused;
  }
  return 0;
}

// Parses "x0,y0,x1,y1".
bool ParseRect(const std::string& text, geometry::Rect* rect) {
  double v[4];
  int consumed = 0;
  if (std::sscanf(text.c_str(), "%lf,%lf,%lf,%lf%n", &v[0], &v[1], &v[2],
                  &v[3], &consumed) != 4 ||
      consumed != static_cast<int>(text.size())) {
    return false;
  }
  *rect = geometry::Rect::FromCorners({v[0], v[1]}, {v[2], v[3]});
  return true;
}

// Builds the sampled deployment shared by the single-query and batch paths:
// sampler selection, sensor draw, graph construction, event ingestion.
std::optional<core::Deployment> BuildSampledDeployment(
    util::FlagParser& flags, const core::SensorNetwork& network,
    double fraction, double time_scale, std::string* error) {
  std::string sampler_name = flags.GetString("sampler", "kd-tree");
  std::unique_ptr<sampling::SensorSampler> sampler;
  for (auto& candidate : sampling::AllSamplers()) {
    if (candidate->Name() == sampler_name) sampler = std::move(candidate);
  }
  if (sampler == nullptr) {
    *error = "unknown sampler: " + sampler_name;
    return std::nullopt;
  }
  core::DeploymentOptions deployment_options;
  if (flags.GetString("store", "exact") == "learned") {
    deployment_options.store = core::StoreKind::kLearned;
    deployment_options.model_type = learned::ModelType::kPiecewiseLinear;
  }
  size_t m = static_cast<size_t>(
      fraction * static_cast<double>(network.NumSensors()));
  util::Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 42)));
  std::vector<graph::NodeId> sensors =
      sampler->Select(network.sensing(), m, rng);
  core::SampledGraph sampled =
      core::SampledGraph::FromSensors(network, std::move(sensors), {});
  return core::Deployment(network, std::move(sampled), deployment_options,
                          time_scale);
}

// Batch mode: answers a query file through the BatchQueryEngine.
int BatchMain(util::FlagParser& flags, const core::SensorNetwork& network,
              double t_end, core::CountKind kind,
              const std::string& kind_name, double fraction,
              const std::string& batch_path) {
  if (fraction <= 0.0) {
    return Fail("--batch requires --sample-fraction > 0 (the batch engine "
                "serves sampled deployments)");
  }
  std::ifstream in(batch_path);
  if (!in) return Fail("cannot open batch file: " + batch_path);
  std::vector<core::RangeQuery> queries;
  double max_t2 = t_end;
  std::string line;
  size_t lineno = 0;
  size_t skipped_empty = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    core::RangeQuery query;
    std::string parse_error;
    if (!core::ParseBatchQueryLine(line, network, &query, &parse_error)) {
      return Fail(batch_path + ":" + std::to_string(lineno) + ": " +
                  parse_error);
    }
    if (query.junctions.empty()) {
      ++skipped_empty;
      continue;
    }
    max_t2 = std::max(max_t2, query.t2);
    queries.push_back(std::move(query));
  }
  if (queries.empty()) return Fail("batch file holds no non-empty query");
  if (skipped_empty > 0) {
    INNET_LOG(WARN) << "skipped " << skipped_empty
                    << " queries with no sensing cell";
  }

  std::string error;
  std::optional<core::Deployment> deployment =
      BuildSampledDeployment(flags, network, fraction, max_t2 + 1.0, &error);
  if (!deployment.has_value()) return Fail(error);

  // The trace ring feeds --trace-out and the /traces telemetry endpoint;
  // it outlives every telemetry object declared below (the server holds an
  // unowned pointer into it).
  std::string trace_out = flags.GetString("trace-out");
  std::string trace_chrome = flags.GetString("trace-chrome");
  bool serve_telemetry = flags.Has("serve-telemetry");
  obs::TracerOptions tracer_options;
  tracer_options.sample_every =
      static_cast<uint64_t>(flags.GetInt("trace-sample", 1));
  tracer_options.ring_capacity = 4096;
  obs::Tracer tracer(tracer_options);

  // Per-query cost accounting (docs/OBSERVABILITY.md §9): the digest
  // table aggregates every answered query; the slow-query log (when
  // requested, or memory-only under live telemetry so /queryz?slow=1
  // works) records outliers. Both outlive the engine and the telemetry
  // server, which hold unowned pointers into them.
  obs::QueryDigestTable digest;
  std::string slowlog_out = flags.GetString("slowlog-out");
  std::unique_ptr<obs::SlowQueryLog> slowlog;
  if (!slowlog_out.empty() || serve_telemetry) {
    obs::SlowQueryLogOptions slowlog_options;
    slowlog_options.threshold_micros =
        flags.GetDouble("slowlog-threshold-ms", 10.0) * 1000.0;
    slowlog_options.path = slowlog_out;
    slowlog_options.registry = &obs::MetricsRegistry::Global();
    slowlog = std::make_unique<obs::SlowQueryLog>(slowlog_options);
  }

  // Arm the black box before anything publishes a store so the crash ring
  // covers the whole serving lifetime, recovery and initial publish
  // included.
  if (serve_telemetry) {
    obs::RegisterBuildInfo(obs::MetricsRegistry::Global());
    obs::FlightRecorder::Global().Configure(
        flags.GetString("flight-dir", "."));
    obs::FlightRecorder::Global().InstallSignalHandlers();
    faults::CrashPointRegistry::Global().SetPreCrashHook(
        &obs::FlightRecorder::CrashPointHook);
  }

  // Live-replay serving (--ingest-epochs N): instead of the deployment's
  // batch-built store, stream the monitored crossing events through an
  // IngestPipeline in N epochs and serve from its published frozen store
  // via the handle-mode engine. The pipeline's innet_ingest_* metrics land
  // in the global registry, so --metrics-out exports them alongside the
  // engine's. Answers are identical to the batch-built store because a
  // generation's runs count exactly like one freeze (docs/PERFORMANCE.md).
  std::unique_ptr<runtime::IngestPipeline> pipeline;
  std::string wal_dir = flags.GetString("wal-dir");
  int ingest_epochs = flags.GetInt("ingest-epochs", 0);

  // Recovery serving (--recover): rebuild the last durable store from the
  // WAL directory (newest usable snapshot + tail replay) and serve the
  // batch from it through a local handle — the same handle-mode read path
  // live ingest uses (docs/FAULTS.md §"Process & storage faults").
  std::optional<forms::FrozenStoreHandle> recovered;
  if (flags.GetBool("recover")) {
    runtime::RecoveryOptions recovery_options;
    recovery_options.wal_dir = wal_dir;
    recovery_options.num_edges = network.TotalEdgeSpace();
    recovery_options.registry = &obs::MetricsRegistry::Global();
    runtime::RecoveryManager manager(recovery_options);
    auto state = manager.Recover();
    if (!state.ok()) return Fail(state.status().ToString());
    recovered.emplace();
    recovered->Restore(state->store, state->generation);
    std::fprintf(stderr,
                 "recover: epoch %llu generation %llu | %llu durable events "
                 "(%llu from snapshot, %llu replayed from WAL tail)\n",
                 static_cast<unsigned long long>(state->durable_epoch),
                 static_cast<unsigned long long>(state->generation),
                 static_cast<unsigned long long>(state->durable_events),
                 static_cast<unsigned long long>(state->snapshot_events),
                 static_cast<unsigned long long>(state->replayed_events));
  }

  if (ingest_epochs > 0) {
    runtime::IngestPipelineOptions pipeline_options;
    pipeline_options.registry = &obs::MetricsRegistry::Global();
    if (!wal_dir.empty()) {
      // Durable ingest: every epoch close group-commits to the WAL before
      // it becomes visible to readers; --snapshot-every N additionally
      // bounds recovery replay with periodic snapshots.
      pipeline_options.durability.wal_dir = wal_dir;
      pipeline_options.durability.snapshot_every_epochs =
          static_cast<size_t>(flags.GetInt("snapshot-every", 0));
    }
    pipeline = std::make_unique<runtime::IngestPipeline>(
        network.TotalEdgeSpace(), pipeline_options);
  }

  // Live telemetry plane (--serve-telemetry PORT): endpoint + collector +
  // SLO engine + flight recorder, up BEFORE the ingest replay so mid-run
  // scrapes observe generations advancing. Declared after `pipeline`, so
  // everything holding a pipeline pointer dies first.
  std::unique_ptr<obs::TimeSeriesCollector> collector;
  std::unique_ptr<obs::SloEngine> slo;
  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (serve_telemetry) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    collector = std::make_unique<obs::TimeSeriesCollector>(registry);
    collector->AddDerivedGauge(
        "innet_uptime_seconds", "",
        [](double) { return obs::UptimeSeconds(); });
    runtime::IngestPipeline* live = pipeline.get();
    if (live != nullptr) {
      collector->AddDerivedGauge(
          "innet_refreeze_staleness_seconds",
          "Seconds since the last frozen-store publish",
          [live](double) { return live->SecondsSinceLastPublish(); });
    }

    std::string slo_path = flags.GetString("slo-config");
    if (!slo_path.empty()) {
      std::vector<obs::SloObjective> objectives;
      if (!obs::LoadSloConfigFile(slo_path, &objectives)) {
        return Fail("cannot load --slo-config " + slo_path);
      }
      slo = std::make_unique<obs::SloEngine>(registry, *collector,
                                             std::move(objectives));
      obs::SloEngine* slo_ptr = slo.get();
      collector->AddSampleListener(
          [slo_ptr](double) { slo_ptr->Evaluate(); });
    }

    obs::TelemetryServerOptions server_options;
    server_options.port =
        static_cast<uint16_t>(flags.GetInt("serve-telemetry", 0));
    telemetry =
        std::make_unique<obs::TelemetryServer>(registry, server_options);
    telemetry->AttachCollector(collector.get());
    telemetry->AttachSloEngine(slo.get());
    telemetry->AttachTracer(&tracer);
    telemetry->AttachDigestTable(&digest);
    telemetry->AttachSlowLog(slowlog.get());
    obs::Counter* wal_errors =
        &registry.GetCounter("innet_wal_errors_total");
    telemetry->AddReadinessProbe(
        "wal_healthy", [wal_errors] { return wal_errors->Value() == 0; });
    if (live != nullptr) {
      telemetry->AddReadinessProbe("store_published", [live] {
        return live->handle().Generation() >= 1;
      });
      auto last_generation = std::make_shared<std::atomic<uint64_t>>(0);
      telemetry->AddReadinessProbe(
          "generation_advancing", [live, last_generation] {
            uint64_t g = live->handle().Generation();
            return g >= last_generation->exchange(g);
          });
      if (flags.Has("readyz-staleness")) {
        double limit = flags.GetDouble("readyz-staleness", 30.0);
        telemetry->AddReadinessProbe(
            "refreeze_staleness", [live, limit] {
              return live->SecondsSinceLastPublish() <= limit;
            });
      }
    }
    if (!telemetry->Start()) {
      return Fail("cannot start telemetry server");
    }
    std::fprintf(stderr, "telemetry: serving on 127.0.0.1:%u\n",
                 static_cast<unsigned>(telemetry->Port()));
    collector->Start();
  }

  if (pipeline != nullptr) {
    size_t chunk =
        network.events().size() / static_cast<size_t>(ingest_epochs) + 1;
    size_t in_epoch = 0;
    for (const mobility::CrossingEvent& event : network.events()) {
      if (!deployment->graph().IsMonitored(event.edge)) continue;
      pipeline->Push(event);
      if (++in_epoch >= chunk) {
        pipeline->CloseEpochAndWait();
        in_epoch = 0;
      }
    }
    pipeline->CloseEpochAndWait();
    std::fprintf(stderr,
                 "ingest: %llu monitored events in %llu epochs, serving "
                 "store generation %llu\n",
                 static_cast<unsigned long long>(pipeline->EventsIngested()),
                 static_cast<unsigned long long>(pipeline->EpochsPublished()),
                 static_cast<unsigned long long>(
                     pipeline->handle().Generation()));
  }

  // The serving process exports through the global registry, so the
  // engine's counters and the --metrics-out dump are the same storage.
  runtime::BatchEngineOptions engine_options;
  engine_options.num_threads =
      static_cast<size_t>(flags.GetInt("threads", 0));
  engine_options.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache", 4096));
  engine_options.registry = &obs::MetricsRegistry::Global();
  engine_options.digest = &digest;
  engine_options.slowlog = slowlog.get();

  if (!trace_out.empty() || !trace_chrome.empty() || serve_telemetry) {
    engine_options.tracer = &tracer;
  }

  std::optional<runtime::BatchQueryEngine> engine_storage;
  if (pipeline != nullptr) {
    engine_storage.emplace(deployment->graph(), pipeline->handle(),
                           engine_options);
  } else if (recovered.has_value()) {
    engine_storage.emplace(deployment->graph(), *recovered, engine_options);
  } else {
    engine_storage.emplace(deployment->graph(), deployment->store(),
                           engine_options);
  }
  runtime::BatchQueryEngine& engine = *engine_storage;

  bool explain = flags.GetBool("explain");
  std::string bound_name = flags.GetString("bound", "");
  util::Timer timer;
  for (core::BoundMode bound :
       {core::BoundMode::kLower, core::BoundMode::kUpper}) {
    if (!bound_name.empty() && bound_name != core::BoundModeName(bound)) {
      continue;
    }
    if (explain) {
      std::vector<obs::ExplainRecord> explains;
      engine.AnswerBatchExplained(queries, kind, bound, &explains);
      for (const obs::ExplainRecord& record : explains) {
        std::printf("%s\n", record.ToJson().c_str());
      }
      continue;
    }
    std::vector<core::QueryAnswer> answers =
        engine.AnswerBatch(queries, kind, bound);
    for (size_t i = 0; i < answers.size(); ++i) {
      const core::QueryAnswer& a = answers[i];
      std::printf("%zu %s %s %.0f%s [sensors=%zu edges=%zu]\n", i,
                  kind_name.c_str(), core::BoundModeName(bound), a.estimate,
                  a.missed ? " MISSED" : "", a.nodes_accessed,
                  a.edges_accessed);
    }
  }
  double wall_seconds = timer.ElapsedSeconds();

  runtime::BatchEngineSnapshot snap = engine.Snapshot();
  std::fprintf(stderr,
               "batch: %llu queries in %.3fs (%.0f q/s, %zu threads) | "
               "cache %llu hits / %llu misses | missed lower=%llu "
               "upper=%llu | latency p50=%.1fus p95=%.1fus\n",
               static_cast<unsigned long long>(snap.queries_answered),
               wall_seconds,
               static_cast<double>(snap.queries_answered) /
                   std::max(wall_seconds, 1e-9),
               engine.NumThreads(),
               static_cast<unsigned long long>(snap.cache_hits),
               static_cast<unsigned long long>(snap.cache_misses),
               static_cast<unsigned long long>(snap.missed_lower),
               static_cast<unsigned long long>(snap.missed_upper),
               snap.latency_p50_micros, snap.latency_p95_micros);
  if (slowlog != nullptr) {
    std::fprintf(stderr,
                 "slowlog: %llu records (%llu suppressed by rate limit)\n",
                 static_cast<unsigned long long>(slowlog->Records()),
                 static_cast<unsigned long long>(slowlog->Suppressed()));
  }
  if (!trace_out.empty() || !trace_chrome.empty()) {
    // Snapshot (not drain): both exporters render the same view, and the
    // ring stays populated so GET /traces keeps serving through the
    // telemetry linger below.
    std::vector<std::unique_ptr<obs::QueryTrace>> traces =
        tracer.SnapshotRing();
    if (!trace_out.empty() &&
        !obs::ExportTracesToFile(traces, trace_out)) {
      return 1;
    }
    if (!trace_chrome.empty() &&
        !obs::ExportTracesChromeToFile(traces, trace_chrome)) {
      return 1;
    }
  }
  // Keep the telemetry endpoint up so external scrapers (CI smoke jobs,
  // a curious operator) can observe the finished run before exit.
  double linger = flags.GetDouble("telemetry-linger", 0.0);
  if (telemetry != nullptr && linger > 0.0) {
    std::fprintf(stderr, "telemetry: lingering %.1fs for scrapes\n", linger);
    util::Timer linger_timer;
    while (linger_timer.ElapsedSeconds() < linger) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return Finish(flags, flags.GetString("metrics-out"));
}

int Main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  std::string log_level_name = flags.GetString("log-level");
  if (!log_level_name.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level_name, &level)) {
      return Fail("unknown --log-level (want info|warn|error|off): " +
                  log_level_name);
    }
    SetMinLogLevel(level);
  }
  // The 1-in-N trace sampling knob must be positive: N == 0 would divide by
  // zero in the sampler and a negative N is always a typo. Validate before
  // any file I/O so bad invocations fail fast.
  if (flags.Has("trace-sample") && flags.GetInt("trace-sample", 1) <= 0) {
    return Fail("--trace-sample must be a positive integer (trace 1-in-N "
                "queries); got " + flags.GetString("trace-sample"));
  }
  if (flags.Has("ingest-epochs") && flags.GetInt("ingest-epochs", 0) <= 0) {
    return Fail("--ingest-epochs must be a positive integer (replay the "
                "event stream in N live-ingest epochs); got " +
                flags.GetString("ingest-epochs"));
  }
  std::string graph_path = flags.GetString("graph");
  std::string trips_path = flags.GetString("trips");
  std::string rect_text = flags.GetString("rect");
  std::string batch_path = flags.GetString("batch");
  // Durability flags are batch-mode-only and interdependent; reject bad
  // combinations before any file I/O.
  if (flags.Has("ingest-epochs") && batch_path.empty()) {
    return Fail("--ingest-epochs serves a batch from a live pipeline; it "
                "requires --batch FILE");
  }
  std::string wal_dir = flags.GetString("wal-dir");
  bool recover = flags.GetBool("recover");
  if (flags.Has("snapshot-every")) {
    if (flags.GetInt("snapshot-every", 0) <= 0) {
      return Fail("--snapshot-every must be a positive integer (snapshot "
                  "the frozen store every N epochs); got " +
                  flags.GetString("snapshot-every"));
    }
    if (wal_dir.empty()) {
      return Fail("--snapshot-every requires --wal-dir DIR (snapshots live "
                  "beside the WAL segments)");
    }
  }
  if (recover && wal_dir.empty()) {
    return Fail("--recover rebuilds the store from a write-ahead log; it "
                "requires --wal-dir DIR");
  }
  if (recover && flags.Has("ingest-epochs")) {
    return Fail("--recover and --ingest-epochs are mutually exclusive: "
                "recovery serves the durable store, ingest re-replays the "
                "event stream");
  }
  if (!wal_dir.empty() && batch_path.empty()) {
    return Fail("--wal-dir only applies to batch mode; add --batch FILE");
  }
  if (!wal_dir.empty() && !recover && !flags.Has("ingest-epochs")) {
    return Fail("--wal-dir requires --ingest-epochs N (durable ingest) or "
                "--recover (serve the last durable store)");
  }
  // Telemetry flags: the live endpoint serves the batch-mode process, and
  // the dependent knobs only mean something once it is up.
  if (flags.Has("serve-telemetry")) {
    int port = flags.GetInt("serve-telemetry", -1);
    if (port < 0 || port > 65535) {
      return Fail("--serve-telemetry wants a TCP port in 0..65535 (0 picks "
                  "an ephemeral port); got " +
                  flags.GetString("serve-telemetry"));
    }
    if (batch_path.empty()) {
      return Fail("--serve-telemetry exposes the live batch-serving "
                  "process; it requires --batch FILE");
    }
  }
  if (flags.Has("slo-config") && !flags.Has("serve-telemetry")) {
    return Fail("--slo-config evaluates objectives over the live telemetry "
                "rings; it requires --serve-telemetry PORT");
  }
  if (flags.Has("telemetry-linger")) {
    if (!flags.Has("serve-telemetry")) {
      return Fail("--telemetry-linger keeps the telemetry endpoint up after "
                  "the batch; it requires --serve-telemetry PORT");
    }
    if (flags.GetDouble("telemetry-linger", 0.0) < 0.0) {
      return Fail("--telemetry-linger must be >= 0 seconds; got " +
                  flags.GetString("telemetry-linger"));
    }
  }
  if (flags.Has("flight-dir") && !flags.Has("serve-telemetry")) {
    return Fail("--flight-dir places the flight-recorder black box; it "
                "requires --serve-telemetry PORT");
  }
  if (flags.Has("readyz-staleness") && !flags.Has("serve-telemetry")) {
    return Fail("--readyz-staleness adds a /readyz probe; it requires "
                "--serve-telemetry PORT");
  }
  // Cost-accounting flags (docs/OBSERVABILITY.md §9) are batch-mode
  // observability; reject bad combinations before any file I/O.
  if (flags.Has("slowlog-out")) {
    if (flags.GetString("slowlog-out").empty()) {
      return Fail("--slowlog-out wants a file path for the JSON-lines "
                  "slow-query log");
    }
    if (batch_path.empty()) {
      return Fail("--slowlog-out records slow queries from the batch "
                  "engine; it requires --batch FILE");
    }
  }
  if (flags.Has("slowlog-threshold-ms")) {
    if (!flags.Has("slowlog-out")) {
      return Fail("--slowlog-threshold-ms tunes the slow-query log; it "
                  "requires --slowlog-out FILE");
    }
    if (flags.GetDouble("slowlog-threshold-ms", 0.0) <= 0.0) {
      return Fail("--slowlog-threshold-ms must be > 0 milliseconds; got " +
                  flags.GetString("slowlog-threshold-ms"));
    }
  }
  // Trace flags: the ring samples the batch engine's queries, and the
  // sampling knob needs something that reads the ring.
  for (const std::string flag : {"trace-out", "trace-chrome"}) {
    if (!flags.Has(flag)) continue;
    if (flags.GetString(flag).empty()) {
      return Fail("--" + flag + " wants a file path for the exported traces");
    }
    if (batch_path.empty()) {
      return Fail("--" + flag + " exports the batch-mode trace ring; it "
                  "requires --batch FILE");
    }
  }
  if (flags.Has("trace-sample") && !flags.Has("trace-out") &&
      !flags.Has("trace-chrome") && !flags.Has("serve-telemetry")) {
    return Fail("--trace-sample samples the trace ring; it requires "
                "--trace-out FILE, --trace-chrome FILE or --serve-telemetry "
                "PORT");
  }
  if (graph_path.empty() || trips_path.empty() ||
      (rect_text.empty() && batch_path.empty())) {
    std::fprintf(stderr,
                 "usage: innet_query --graph G --trips T --rect x0,y0,x1,y1 "
                 "[--t1 S] [--t2 S] [--kind static|transient] "
                 "[--sample-fraction F] [--sampler NAME] "
                 "[--bound lower|upper] [--store exact|learned]\n"
                 "   or: innet_query --graph G --trips T --batch FILE "
                 "--sample-fraction F [--threads N] [--cache N] [--kind K] "
                 "[--bound B] [--sampler NAME] [--store exact|learned] "
                 "[--ingest-epochs N]\n"
                 "durability: [--wal-dir DIR] [--snapshot-every N] "
                 "[--recover]\n"
                 "observability: [--metrics-out PATH] [--trace-out PATH] "
                 "[--trace-chrome PATH] [--trace-sample N] "
                 "[--slowlog-out FILE] "
                 "[--slowlog-threshold-ms MS] [--explain] "
                 "[--explain-svg PATH] [--log-level info|warn|error|off]\n"
                 "telemetry: [--serve-telemetry PORT] [--slo-config FILE] "
                 "[--telemetry-linger SEC] [--flight-dir DIR] "
                 "[--readyz-staleness SEC]\n");
    return 2;
  }

  auto graph = io::LoadRoadNetwork(graph_path);
  if (!graph.ok()) return Fail(graph.status().ToString());
  core::SensorNetwork network(std::move(*graph));
  auto trips = io::LoadTrajectories(trips_path, &network.mobility());
  if (!trips.ok()) return Fail(trips.status().ToString());
  network.IngestTrajectories(*trips);
  double t_end = network.events().empty() ? 0.0
                                          : network.events().back().time;

  std::string kind_name = flags.GetString("kind", "static");
  core::CountKind kind = kind_name == "transient"
                             ? core::CountKind::kTransient
                             : core::CountKind::kStatic;
  double fraction = flags.GetDouble("sample-fraction", 0.0);

  if (!batch_path.empty()) {
    return BatchMain(flags, network, t_end, kind, kind_name, fraction,
                     batch_path);
  }

  geometry::Rect rect;
  if (!ParseRect(rect_text, &rect)) {
    return Fail("cannot parse --rect (want x0,y0,x1,y1)");
  }
  core::RangeQuery query;
  query.rect = rect;
  query.junctions = network.JunctionsInRect(rect);
  if (query.junctions.empty()) {
    return Fail("query rectangle contains no sensing cell");
  }
  query.t1 = flags.GetDouble("t1", 0.0);
  query.t2 = flags.GetDouble("t2", t_end);

  bool explain = flags.GetBool("explain");
  std::string explain_svg = flags.GetString("explain-svg");
  if (!explain_svg.empty() && fraction <= 0.0) {
    return Fail("--explain-svg renders the resolved face union of a sampled "
                "deployment; it requires --sample-fraction > 0");
  }

  if (!explain) {
    std::printf("region: %zu sensing cells in [%.0f,%.0f]x[%.0f,%.0f], "
                "t in [%.0f, %.0f]\n",
                query.junctions.size(), rect.min_x, rect.max_x, rect.min_y,
                rect.max_y, query.t1, query.t2);
  }

  if (fraction <= 0.0) {
    core::UnsampledQueryProcessor processor(network);
    obs::ExplainRecord record;
    core::QueryAnswer answer =
        processor.Answer(query, kind, explain ? &record : nullptr);
    if (explain) {
      std::printf("%s\n", record.ToJson().c_str());
    } else {
      std::printf("%s count (exact): %.0f  [sensors=%zu edges=%zu %.1fus]\n",
                  kind_name.c_str(), answer.estimate, answer.nodes_accessed,
                  answer.edges_accessed, answer.exec_micros);
    }
    return Finish(flags, flags.GetString("metrics-out"));
  }

  // Sampled path: pick a sampler, deploy, answer with both bounds.
  std::string sampler_name = flags.GetString("sampler", "kd-tree");
  std::string error;
  std::optional<core::Deployment> deployment = BuildSampledDeployment(
      flags, network, fraction, query.t2 + 1.0, &error);
  if (!deployment.has_value()) return Fail(error);
  core::SampledQueryProcessor processor = deployment->processor();

  std::string bound_name = flags.GetString("bound", "");
  obs::ExplainRecord last_explain;
  bool answered_any = false;
  for (core::BoundMode bound :
       {core::BoundMode::kLower, core::BoundMode::kUpper}) {
    if (!bound_name.empty() && bound_name != core::BoundModeName(bound)) {
      continue;
    }
    obs::ExplainRecord record;
    core::QueryAnswer answer = processor.Answer(
        query, kind, bound,
        explain || !explain_svg.empty() ? &record : nullptr);
    last_explain = record;
    answered_any = true;
    if (explain) {
      std::printf("%s\n", record.ToJson().c_str());
    } else {
      std::printf(
          "%s count (%s, %s @%.1f%%): %.0f%s  [sensors=%zu edges=%zu "
          "%.1fus]\n",
          kind_name.c_str(), core::BoundModeName(bound), sampler_name.c_str(),
          fraction * 100.0, answer.estimate, answer.missed ? " (MISSED)" : "",
          answer.nodes_accessed, answer.edges_accessed, answer.exec_micros);
    }
  }
  if (!explain_svg.empty() && answered_any) {
    util::Status status = viz::RenderExplainOverlay(
        network, deployment->graph(), last_explain, rect, explain_svg);
    if (!status.ok()) return Fail(status.ToString());
  }
  return Finish(flags, flags.GetString("metrics-out"));
}

}  // namespace
}  // namespace innet

int main(int argc, char** argv) { return innet::Main(argc, argv); }
