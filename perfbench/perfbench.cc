// End-to-end benchmark program.
//
// Builds a fixed synthetic city (road network, trips, kd-tree sensor
// deployment at 25.6% of sensors, frozen serving store), then runs ONE
// workload for a fixed wall-clock time and prints one JSON object on its
// last stdout line. perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads and every metric.
//
//   innet_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads:
//   warm_read      a dashboard re-polling a fixed pool of regions: the
//                  boundary cache answers every repeat.
//   cold_read      a fresh random region per query: every query misses the
//                  cache and runs junction lookup, face resolution and
//                  boundary assembly.
//   degraded_read  the warm pool with 10% of sensors dead: answers are
//                  rerouted around dead faces and carry intervals.
//   live_ingest    first an open-loop writer pushes crossing events at a
//                  fixed rate into the durable IngestPipeline while a reader
//                  answers queries from the published store; then
//                  closed-loop trials measure how fast one producer gets
//                  its epochs published.
//
// Read workloads are closed loop with one client: the op is one query,
// rectangle -> junction lookup -> BatchQueryEngine::Answer. The ingest
// workload's op is one event, timed from when it was due to be pushed until
// the first reader answer served from a store generation that holds it.
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the same loop
// with spans around each layer call, the engine's own Tracer and query
// digest attached, and prints per-layer metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/health.h"
#include "core/query.h"
#include "core/query_processor.h"
#include "forms/frozen_tracking_form.h"
#include "forms/tracking_form.h"
#include "obs/metrics.h"
#include "obs/query_digest.h"
#include "obs/trace.h"
#include "runtime/batch_query_engine.h"
#include "runtime/ingest_pipeline.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace innet::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------------------
// Set-up: the city is fixed (its own seed), so every run serves the same
// deployment; --seed only drives the query and event streams.

constexpr uint64_t kCitySeed = 42;
constexpr uint64_t kSamplerSeed = 9;
constexpr double kSensorFraction = 0.256;
constexpr int kSetupRepeats = 3;
// The degraded scenario's dead sensors are part of the deployment, not of
// the inputs: a per-seed set would change how many regions need rerouting.
constexpr uint64_t kFaultSeed = 2024;
constexpr double kDeadSensorFraction = 0.10;
// Regions a dashboard re-polls, and boundary-cache entries (enough for every
// pool region under both bounds).
constexpr size_t kPoolSize = 2048;
constexpr size_t kCacheEntries = 16384;

struct City {
  std::unique_ptr<core::Framework> framework;
  std::unique_ptr<core::Deployment> deployment;
  std::unique_ptr<forms::FrozenTrackingForm> frozen;

  const core::SensorNetwork& network() const { return framework->network(); }
  const core::SampledGraph& graph() const { return deployment->graph(); }
};

std::unique_ptr<City> BuildCity() {
  core::FrameworkOptions options;
  options.road.num_junctions = 2500;
  options.road.world_size = 30000.0;
  options.traffic.num_trajectories = 8000;
  options.traffic.horizon = 6.0 * 3600.0;
  options.seed = kCitySeed;
  auto city = std::make_unique<City>();
  city->framework = std::make_unique<core::Framework>(options);
  sampling::KdTreeSampler sampler;
  util::Rng rng(kSamplerSeed);
  size_t m = static_cast<size_t>(kSensorFraction *
                                 static_cast<double>(city->network().NumSensors()));
  city->deployment = std::make_unique<core::Deployment>(
      city->framework->DeployWithSampler(sampler, std::max<size_t>(1, m),
                                         core::DeploymentOptions{}, rng));
  city->frozen = std::make_unique<forms::FrozenTrackingForm>(
      city->deployment->tracking_store()->Freeze());
  return city;
}

// Builds the city kSetupRepeats times; returns the last one and the median
// build time.
std::unique_ptr<City> SetUp(double* setup_seconds) {
  std::vector<double> times;
  std::unique_ptr<City> city;
  for (int i = 0; i < kSetupRepeats; ++i) {
    city.reset();
    Clock::time_point start = Clock::now();
    city = BuildCity();
    times.push_back(Seconds(Clock::now() - start));
  }
  std::sort(times.begin(), times.end());
  *setup_seconds = times[times.size() / 2];
  return city;
}

// ---------------------------------------------------------------------------
// Query streams.

struct QuerySpec {
  geometry::Rect rect;
  double t1 = 0.0;
  double t2 = 0.0;
  core::CountKind kind = core::CountKind::kStatic;
  core::BoundMode bound = core::BoundMode::kLower;
};

// The paper's query-size sweep (§5.3); the i-th query cycles through every
// (area, kind, bound) combination so each seed sees the same mix.
constexpr double kAreaFractions[] = {0.01, 0.02, 0.04, 0.08, 0.16};

QuerySpec DrawQuery(const geometry::Rect& domain, double horizon, size_t i,
                    util::Rng& rng) {
  QuerySpec spec;
  double area = kAreaFractions[i % 5] * domain.Area();
  double width = std::min(std::sqrt(area * rng.Uniform(0.6, 1.7)),
                          domain.Width());
  double height = std::min(area / width, domain.Height());
  double x = rng.Uniform(domain.min_x, domain.max_x - width);
  double y = rng.Uniform(domain.min_y, domain.max_y - height);
  spec.rect = geometry::Rect(x, y, x + width, y + height);
  double length = horizon * rng.Uniform(0.1, 0.4);
  spec.t1 = rng.Uniform(0.0, horizon - length);
  spec.t2 = spec.t1 + length;
  spec.kind = (i / 5) % 2 == 0 ? core::CountKind::kStatic
                               : core::CountKind::kTransient;
  spec.bound = (i / 10) % 2 == 0 ? core::BoundMode::kLower
                                 : core::BoundMode::kUpper;
  return spec;
}

std::vector<QuerySpec> DrawPool(const City& city, size_t count,
                                util::Rng& rng) {
  std::vector<QuerySpec> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pool.push_back(DrawQuery(city.network().DomainBounds(),
                             city.framework->Horizon(), i, rng));
  }
  // Serve the pool in a seeded order so consecutive polls do not walk the
  // area sweep in lockstep.
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.UniformIndex(i)]);
  }
  return pool;
}

core::RangeQuery Materialize(const core::SensorNetwork& network,
                             const QuerySpec& spec) {
  core::RangeQuery query;
  query.rect = spec.rect;
  query.junctions = network.JunctionsInRect(spec.rect);
  query.t1 = spec.t1;
  query.t2 = spec.t2;
  return query;
}

// ---------------------------------------------------------------------------
// Measurement records.

// Every timed operation: its latency, and its offset into the run, which
// places it in a slice. Offsets are non-decreasing.
struct Timings {
  std::vector<double> latency_us;
  std::vector<double> at_s;

  void Add(double latency, double at) {
    latency_us.push_back(latency);
    at_s.push_back(at);
  }
};

// A read run is cut into slices of about kSliceSeconds of wall time. On a
// shared machine busy neighbours slow the code by up to half for stretches
// of a few seconds, so a read run reports the operations of its
// kQuietSlices quietest slices (lowest median latency), pooled: their p50,
// their p99 and their rate. A change that slows the code slows every slice,
// the quiet ones too.
constexpr double kSliceSeconds = 0.1;
constexpr size_t kQuietSlices = 10;
// Slices with fewer operations (a stalled stretch) are never the quiet ones.
// It also makes the pool at least kQuietSlices * kMinSliceOps = 10^4
// operations, so a hundred lie beyond its p99.
constexpr size_t kMinSliceOps = 1000;

double Quantile(std::vector<double> values, double q) {
  size_t k = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

struct SteadyState {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double per_second = 0.0;
  size_t pooled = 0;  // Operations the figures are taken over.
};

SteadyState Summarize(const Timings& t, double seconds) {
  struct Slice {
    size_t begin, end;
    double p50;
  };
  std::vector<Slice> slices;
  const size_t count =
      std::max<size_t>(1, static_cast<size_t>(seconds / kSliceSeconds + 0.5));
  double width = seconds / static_cast<double>(count);
  size_t begin = 0;
  for (size_t slice = 1; slice <= count; ++slice) {
    size_t end = begin;
    while (end < t.at_s.size() &&
           (slice == count ||
            t.at_s[end] < width * static_cast<double>(slice))) {
      ++end;
    }
    if (end - begin >= kMinSliceOps) {
      slices.push_back({begin, end,
                        Quantile({t.latency_us.begin() + begin,
                                  t.latency_us.begin() + end},
                                 0.50)});
    }
    begin = end;
  }
  if (slices.empty()) return {};
  std::sort(slices.begin(), slices.end(),
            [](const Slice& a, const Slice& b) { return a.p50 < b.p50; });
  slices.resize(std::min(kQuietSlices, slices.size()));
  std::vector<double> quiet;
  for (const Slice& s : slices) {
    quiet.insert(quiet.end(), t.latency_us.begin() + s.begin,
                 t.latency_us.begin() + s.end);
  }
  double quiet_seconds = width * static_cast<double>(slices.size());
  return {Quantile(quiet, 0.50), Quantile(quiet, 0.99),
          static_cast<double>(quiet.size()) / quiet_seconds, quiet.size()};
}

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;

  void Metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const char* what, uint64_t count = 1) {
    if (count == 0) return;
    std::fprintf(stderr, "check failed: %s (x%llu)\n", what,
                 static_cast<unsigned long long>(count));
    correct = false;
    failed += count;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void EmitEndToEnd(double p50_us, double p99_us, double per_second,
                  double setup_s, Result& r) {
  r.Metric("latency_p50_us", p50_us, "us");
  r.Metric("latency_p99_us", p99_us, "us");
  r.Metric("throughput_per_s", per_second, "1/s");
  r.Metric("setup_s", setup_s, "s");
}

// Per-layer record of a traced run. The bench times the calls it makes
// itself (junction lookup, engine answer, push); the engine's own Tracer
// spans and QueryDigestTable attribute each answer to the layers it actually
// ran on its served path (cache hit, cache miss, degraded).
class LayerTrace {
 public:
  LayerTrace() : tracer_(obs::TracerOptions{kRing, 1}) {}

  void Attach(runtime::BatchEngineOptions& options) {
    options.tracer = &tracer_;
    options.digest = &digest_;
  }

  void AddQuery(Clock::duration lookup, Clock::duration answer) {
    junction_lookup_ += Seconds(lookup);
    engine_answer_ += Seconds(answer);
    if (++queries_ % (kRing / 2) == 0) Collect();
  }

  // Ingest-side figures, measured by the writer and the pipeline.
  double push_seconds = 0.0;
  uint64_t pushed = 0;
  double writer_lag_p99_us = 0.0;
  double refreeze_ms = 0.0;
  double fsync_ms = 0.0;
  uint64_t epochs = 0;

  void Emit(const runtime::BatchEngineSnapshot& engine, Result& r) {
    Collect();
    double q = static_cast<double>(queries_);
    auto per_query_us = [&](const char* stage) {
      return Ratio(stage_micros_[stage], q);
    };
    uint64_t faces = 0, edges = 0, sensors = 0, timestamps = 0;
    for (const obs::QueryDigestRow& row : digest_.TopK(SIZE_MAX)) {
      faces += row.faces;
      edges += row.boundary_edges;
      sensors += row.boundary_sensors;
      timestamps += row.csr_timestamps;
    }
    double recorded = static_cast<double>(digest_.TotalRecorded());
    r.Metric("junction_lookup_us", Ratio(junction_lookup_ * 1e6, q), "us");
    r.Metric("engine_answer_us", Ratio(engine_answer_ * 1e6, q), "us");
    r.Metric("cache_lookup_us", per_query_us("cache_lookup"), "us");
    // boundary_resolution's span encloses degraded_reroute; self time here.
    r.Metric("boundary_resolution_us",
             per_query_us("boundary_resolution") -
                 per_query_us("degraded_reroute"),
             "us");
    r.Metric("degraded_reroute_us", per_query_us("degraded_reroute"), "us");
    r.Metric("integration_us", per_query_us("form_integration"), "us");
    r.Metric("degraded_answer_us", per_query_us("degraded_answer"), "us");
    r.Metric("cache_hit_ratio",
             Ratio(static_cast<double>(engine.cache_hits),
                   static_cast<double>(engine.cache_hits + engine.cache_misses)),
             "ratio");
    r.Metric("faces_per_query", Ratio(static_cast<double>(faces), recorded),
             "count");
    r.Metric("boundary_edges_per_query",
             Ratio(static_cast<double>(edges), recorded), "count");
    r.Metric("sensors_per_query", Ratio(static_cast<double>(sensors), recorded),
             "count");
    r.Metric("csr_timestamps_per_query",
             Ratio(static_cast<double>(timestamps), recorded), "count");
    r.Metric("degraded_fraction",
             Ratio(static_cast<double>(engine.degraded_answers), q), "ratio");
    r.Metric("missed_fraction",
             Ratio(static_cast<double>(engine.missed_lower + engine.missed_upper),
                   q),
             "ratio");
    r.Metric("push_ns_per_event",
             Ratio(push_seconds * 1e9, static_cast<double>(pushed)), "ns");
    r.Metric("writer_lag_p99_us", writer_lag_p99_us, "us");
    r.Metric("refreeze_ms", refreeze_ms, "ms");
    r.Metric("wal_fsync_ms", fsync_ms, "ms");
    r.Metric("epochs_published", static_cast<double>(epochs), "count");
  }

 private:
  // Finished traces the tracer keeps; they are drained at half that.
  static constexpr size_t kRing = 256;

  void Collect() {
    for (const std::unique_ptr<obs::QueryTrace>& trace : tracer_.Drain()) {
      for (const obs::TraceStage& stage : trace->stages()) {
        stage_micros_[stage.name] += stage.elapsed_micros;
      }
    }
  }

  obs::Tracer tracer_;
  obs::QueryDigestTable digest_;
  std::map<std::string, double> stage_micros_;
  double junction_lookup_ = 0.0;
  double engine_answer_ = 0.0;
  uint64_t queries_ = 0;
};

// ---------------------------------------------------------------------------
// Read workloads.

// Dead-sensor health view: a fixed seeded set, never changing generation.
class DeadSensorView final : public core::SensorHealthView {
 public:
  DeadSensorView(const core::SensorNetwork& network, double fraction,
                 util::Rng& rng)
      : dead_(network.sensing().NumNodes(), false) {
    graph::NodeId ext = network.sensing().ExtNode();
    for (graph::NodeId s = 0; s < dead_.size(); ++s) {
      if (s != ext && rng.Bernoulli(fraction)) dead_[s] = true;
    }
  }
  bool IsFailed(graph::NodeId sensor) const override {
    return sensor < dead_.size() && dead_[sensor];
  }
  uint64_t Generation() const override { return 1; }

 private:
  std::vector<bool> dead_;
};

enum class ReadKind { kWarm, kCold, kDegraded };

struct Answered {
  QuerySpec spec;
  core::QueryAnswer answer;
};

// Checks sampled answers against the virtual-path processor over the
// unfrozen tracking store (a separate code path that must agree exactly),
// and static answers against the paper's bracketing invariant.
void VerifyReads(const City& city, const core::SensorHealthView* health,
                 const std::vector<Answered>& answered, Result& r) {
  core::SampledQueryProcessor oracle = city.deployment->processor();
  uint64_t mismatches = 0;
  uint64_t bracket_violations = 0;
  uint64_t interval_violations = 0;
  for (const Answered& a : answered) {
    core::RangeQuery query = Materialize(city.network(), a.spec);
    core::QueryAnswer healthy = oracle.Answer(query, a.spec.kind, a.spec.bound);
    core::QueryAnswer want =
        health != nullptr
            ? oracle.AnswerDegraded(query, a.spec.kind, a.spec.bound, *health,
                                    core::DegradedOptions{})
            : healthy;
    if (want.missed != a.answer.missed ||
        want.degraded != a.answer.degraded ||
        want.estimate != a.answer.estimate ||
        want.interval.lo != a.answer.interval.lo ||
        want.interval.hi != a.answer.interval.hi) {
      ++mismatches;
    }
    if (a.spec.kind != core::CountKind::kStatic || a.answer.missed) continue;
    if (health == nullptr) {
      double truth =
          city.network().GroundTruthStatic(query.junctions, query.t2);
      bool ok = a.spec.bound == core::BoundMode::kLower
                    ? a.answer.estimate <= truth
                    : a.answer.estimate >= truth;
      if (!ok) ++bracket_violations;
    } else if (!healthy.missed &&
               !a.answer.interval.Contains(healthy.estimate)) {
      ++interval_violations;
    }
  }
  r.Fail("answer differs from the virtual-path processor", mismatches);
  r.Fail("static bound does not bracket the exact count", bracket_violations);
  r.Fail("degraded interval excludes the fault-free answer",
         interval_violations);
}

Result RunRead(ReadKind kind, uint64_t seed, double seconds, bool trace) {
  Result r;
  double setup_s = 0.0;
  std::unique_ptr<City> city = SetUp(&setup_s);
  const core::SensorNetwork& network = city->network();
  util::Rng rng(seed);

  std::unique_ptr<DeadSensorView> health;
  runtime::BatchEngineOptions options;
  options.num_threads = 0;  // One closed-loop client on the calling thread.
  options.cache_capacity = kCacheEntries;
  if (kind == ReadKind::kDegraded) {
    util::Rng fault_rng(kFaultSeed);
    health = std::make_unique<DeadSensorView>(network, kDeadSensorFraction,
                                              fault_rng);
    options.health = health.get();
  }
  LayerTrace layers;
  if (trace) layers.Attach(options);
  runtime::BatchQueryEngine engine(city->graph(), *city->frozen, options);

  std::vector<QuerySpec> pool;
  if (kind != ReadKind::kCold) pool = DrawPool(*city, kPoolSize, rng);

  std::vector<Answered> checked;
  Timings timings;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline = start + ToDuration(seconds);
  Clock::time_point now = start;
  for (size_t i = 0; now < deadline; ++i) {
    QuerySpec spec =
        kind == ReadKind::kCold
            ? DrawQuery(network.DomainBounds(), city->framework->Horizon(), i,
                        rng)
            : pool[i % pool.size()];
    Clock::time_point t0 = Clock::now();
    core::RangeQuery query = Materialize(network, spec);
    Clock::time_point t1 = Clock::now();
    core::QueryAnswer answer = engine.Answer(query, spec.kind, spec.bound);
    now = Clock::now();
    timings.Add(Micros(now - t0), Seconds(now - start));
    // A deterministic sample of answers is re-derived after the clock stops.
    if (i % 61 == 0 && checked.size() < 3000) checked.push_back({spec, answer});
    if (trace) layers.AddQuery(t1 - t0, now - t1);
  }
  r.attempted = timings.latency_us.size();
  VerifyReads(*city, health.get(), checked, r);

  if (trace) {
    layers.Emit(engine.Snapshot(), r);
  } else {
    SteadyState steady = Summarize(timings, seconds);
    std::fprintf(stderr,
                 "pooled %zu of %zu operations; whole run %.1f ops/s\n",
                 steady.pooled, timings.latency_us.size(),
                 static_cast<double>(timings.latency_us.size()) / seconds);
    EmitEndToEnd(steady.p50_us, steady.p99_us, steady.per_second, setup_s, r);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Live ingest.

// Epochs close by count, as docs/API.md configures live and durable ingest
// (IngestPipelineOptions::epoch_event_target = 100'000).
constexpr size_t kEpochEvents = 100'000;
// The open-loop writer's schedule: about 40% of the durable capacity
// bench/ingest_throughput reports (2.2-2.7M events/s, docs/PERFORMANCE.md
// §6). Each re-freeze copies the whole store, which grows at this rate to
// ~10^7 events in a 20 s run; by then a re-freeze takes most of an epoch,
// so latency answers to write-path cost and not only to the schedule.
constexpr double kEventsPerSecond = 1'000'000.0;
// Laps of the recorded stream one capacity trial pushes: about ten epochs,
// so the trial's last, partial epoch is a small share of it.
constexpr uint64_t kTrialLaps = 5;
// Every kLatencyStride-th measured event is kept as a latency sample.
constexpr uint64_t kLatencyStride = 16;

// The monitored slice of the city's crossing stream, time-ordered and
// deduplicated on (time, edge, direction).
std::vector<mobility::CrossingEvent> MonitoredStream(const City& city) {
  std::vector<mobility::CrossingEvent> events;
  for (const mobility::CrossingEvent& e : city.network().events()) {
    if (city.graph().IsMonitored(e.edge)) events.push_back(e);
  }
  auto key = [](const mobility::CrossingEvent& e) {
    return std::make_tuple(e.time, e.edge, e.forward);
  };
  std::sort(events.begin(), events.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  events.erase(std::unique(events.begin(), events.end(),
                           [&](const auto& a, const auto& b) {
                             return key(a) == key(b);
                           }),
               events.end());
  return events;
}

// The stream replayed end to end in laps; lap k is shifted k horizons later
// so every (edge, direction) sequence stays ascending.
class EventSource {
 public:
  EventSource(std::vector<mobility::CrossingEvent> stream, double lap_shift,
              size_t offset)
      : stream_(std::move(stream)), lap_shift_(lap_shift), offset_(offset) {}

  uint64_t LapSize() const { return stream_.size(); }

  mobility::CrossingEvent At(uint64_t i) const {
    uint64_t j = i + offset_;
    mobility::CrossingEvent e = stream_[j % stream_.size()];
    e.time += static_cast<double>(j / stream_.size()) * lap_shift_;
    return e;
  }

 private:
  std::vector<mobility::CrossingEvent> stream_;
  double lap_shift_;
  size_t offset_;
};

std::string WalDirectory() {
  const char* build = std::getenv("INNET_PERFBENCH_SCRATCH");
  std::string root = build != nullptr && *build != '\0' ? build : ".";
  return root + "/perfbench-wal-" + std::to_string(::getpid());
}

runtime::IngestPipelineOptions DurableOptions(const std::string& wal_dir,
                                              obs::MetricsRegistry* registry) {
  runtime::IngestPipelineOptions options;
  options.shards = 1;  // One writer: stores hold a prefix of pushes.
  options.epoch_event_target = kEpochEvents;
  options.durability.wal_dir = wal_dir;
  options.registry = registry;
  return options;
}

// Returns the mean of the observations `h` gained since `before` = {count,
// sum}, in milliseconds.
double MeanSinceMs(const obs::Histogram& h, std::pair<uint64_t, double> before) {
  return Ratio(h.Sum() - before.second,
               static_cast<double>(h.Count() - before.first)) /
         1e3;
}

// One closed-loop capacity trial: a producer that hands over kTrialLaps laps
// of the stream in epochs of kEpochEvents and waits for each epoch to be
// durable and published before it sends the next, on a fresh durable
// pipeline. One thread runs at a time, so the rate does not depend on
// whether the writer and the freezer find cores of their own. Returns
// events per second.
double CapacityTrial(size_t num_edges, const EventSource& source,
                     const std::string& wal_dir,
                     obs::MetricsRegistry* registry, Result& r) {
  std::filesystem::remove_all(wal_dir);
  const uint64_t total = kTrialLaps * source.LapSize();
  double seconds = 0.0;
  {
    runtime::IngestPipelineOptions options = DurableOptions(wal_dir, registry);
    options.epoch_event_target = 0;  // The producer closes each epoch.
    runtime::IngestPipeline pipeline(num_edges, options);
    Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < total;) {
      const uint64_t end = std::min<uint64_t>(total, i + kEpochEvents);
      for (; i < end; ++i) pipeline.Push(source.At(i));
      pipeline.CloseEpochAndWait();
    }
    seconds = Seconds(Clock::now() - start);
    if (pipeline.handle().Acquire().store->TotalEvents() != total) {
      r.Fail("capacity trial store does not hold every pushed event");
    }
  }
  r.attempted += total;
  return static_cast<double>(total) / seconds;
}

Result RunIngest(uint64_t seed, double seconds, bool trace) {
  Result r;
  double setup_s = 0.0;
  std::unique_ptr<City> city = SetUp(&setup_s);
  const core::SensorNetwork& network = city->network();
  util::Rng rng(seed);
  std::vector<mobility::CrossingEvent> stream = MonitoredStream(*city);
  const size_t offset = rng.UniformIndex(stream.size());
  const EventSource source(std::move(stream), city->framework->Horizon() + 1.0,
                           offset);
  // One lap of the stream, a recorded day as large as the read workloads'
  // store, arrives before the clock starts.
  const uint64_t history = source.LapSize();
  std::vector<QuerySpec> pool = DrawPool(*city, kPoolSize, rng);
  // Half the run is the open-loop phase, half the capacity trials.
  const double open_seconds = seconds / 2.0;
  const uint64_t total = static_cast<uint64_t>(kEventsPerSecond * open_seconds);

  const std::string wal_root = WalDirectory();
  std::filesystem::remove_all(wal_root);
  std::filesystem::create_directories(wal_root);
  obs::MetricsRegistry registry;
  auto pipeline = std::make_unique<runtime::IngestPipeline>(
      network.TotalEdgeSpace(), DurableOptions(wal_root + "/live", &registry));
  for (uint64_t i = 0; i < history; ++i) pipeline->Push(source.At(i));
  pipeline->CloseEpochAndWait();
  const forms::FrozenStoreHandle& handle = pipeline->handle();
  LayerTrace layers;
  runtime::BatchEngineOptions engine_options;
  engine_options.cache_capacity = kCacheEntries;
  if (trace) layers.Attach(engine_options);
  runtime::BatchQueryEngine engine(city->graph(), handle, engine_options);
  obs::Histogram& refreeze = registry.GetHistogram(
      "innet_refreeze_duration_micros", obs::Histogram::DurationBoundsMicros());
  obs::Histogram& fsync = registry.GetHistogram(
      "innet_wal_fsync_micros", obs::Histogram::DurationBoundsMicros());
  const std::pair<uint64_t, double> refreeze_before{refreeze.Count(),
                                                    refreeze.Sum()};
  const std::pair<uint64_t, double> fsync_before{fsync.Count(), fsync.Sum()};
  const uint64_t epochs_before = pipeline->EpochsPublished();

  // Measured event i is history + i of the source, due at start + i / rate.
  std::atomic<uint64_t> pushed_total{0};
  std::atomic<bool> writer_done{false};
  // Writer-owned, read only after the join.
  double push_seconds = 0.0;
  std::vector<double> lag_us;  // Per wake-up: how late its first push was.

  Clock::time_point start = Clock::now();
  auto due = [&](uint64_t i) {
    return start + ToDuration(static_cast<double>(i) / kEventsPerSecond);
  };
  std::thread writer([&] {
    for (uint64_t i = 0;;) {
      Clock::time_point now = Clock::now();
      uint64_t target = std::min<uint64_t>(
          total,
          static_cast<uint64_t>(Seconds(now - start) * kEventsPerSecond) + 1);
      if (i < target) lag_us.push_back(Micros(now - due(i)));
      for (; i < target; ++i) pipeline->Push(source.At(history + i));
      push_seconds += Seconds(Clock::now() - now);
      pushed_total.store(i, std::memory_order_release);
      if (i >= total) break;
      std::this_thread::sleep_until(due(i));
    }
    pipeline->CloseEpoch();  // The last, partial epoch.
    writer_done.store(true, std::memory_order_release);
  });

  // Reader: one client answering back to back, like the read workloads'. A
  // measured event counts as visible once an answer has been served from a
  // generation that holds it.
  struct Visible {
    uint64_t end;  // Measured events [previous end, end) became visible.
    Clock::time_point at;
  };
  std::vector<Visible> visible;
  uint64_t visible_events = 0;
  uint64_t seen_generation = handle.Generation();
  for (size_t i = 0;; ++i) {
    bool done = writer_done.load(std::memory_order_acquire);
    forms::FrozenStoreHandle::Snapshot snap;
    if (handle.Generation() != seen_generation) snap = handle.Acquire();
    const QuerySpec& spec = pool[i % pool.size()];
    Clock::time_point t0 = Clock::now();
    core::RangeQuery query = Materialize(network, spec);
    Clock::time_point t1 = Clock::now();
    engine.Answer(query, spec.kind, spec.bound);
    Clock::time_point t2 = Clock::now();
    if (trace) layers.AddQuery(t1 - t0, t2 - t1);
    if (snap.store != nullptr) {
      seen_generation = snap.generation;
      uint64_t holds = snap.store->TotalEvents() - history;
      if (holds > visible_events) {
        visible.push_back({holds, t2});
        visible_events = holds;
      }
    }
    if (done && visible_events >= pushed_total.load()) break;
    if (t2 > start + ToDuration(open_seconds + 60.0)) {
      r.Fail("pushed events never became visible");
      break;
    }
  }
  writer.join();
  const uint64_t pushed = pushed_total.load();
  layers.push_seconds = push_seconds;
  layers.pushed = pushed;
  layers.writer_lag_p99_us = lag_us.empty() ? 0.0 : Quantile(lag_us, 0.99);
  layers.refreeze_ms = MeanSinceMs(refreeze, refreeze_before);
  layers.fsync_ms = MeanSinceMs(fsync, fsync_before);
  layers.epochs = pipeline->EpochsPublished() - epochs_before;

  // Event-to-visible latency from each event's due time.
  std::vector<double> latency_us;
  uint64_t begin = 0;
  for (const Visible& v : visible) {
    for (uint64_t i = (begin + kLatencyStride - 1) / kLatencyStride *
                      kLatencyStride;
         i < v.end; i += kLatencyStride) {
      latency_us.push_back(Micros(v.at - due(i)));
    }
    begin = v.end;
  }

  // Closed-loop capacity trials fill the rest of the run; at least three,
  // so the median is not one trial's.
  obs::MetricsRegistry trial_registry;
  std::vector<double> capacity;
  Clock::time_point trials_start = Clock::now();
  while (capacity.size() < 3 ||
         Seconds(Clock::now() - trials_start) < seconds - open_seconds) {
    capacity.push_back(CapacityTrial(network.TotalEdgeSpace(), source,
                                     wal_root + "/trial", &trial_registry, r));
  }
  r.attempted += pushed;

  // Identity: the published store must equal a from-scratch store of every
  // pushed event, and the live engine must answer like a processor over it.
  forms::FrozenStoreHandle::Snapshot final_snap = handle.Acquire();
  if (final_snap.store->TotalEvents() != history + pushed ||
      visible_events != pushed) {
    r.Fail("published store does not hold every pushed event");
  }
  forms::TrackingForm scratch(network.TotalEdgeSpace());
  for (uint64_t i = 0; i < history + pushed; ++i) {
    mobility::CrossingEvent e = source.At(i);
    scratch.RecordTraversal(e.edge, e.forward, e.time);
  }
  uint64_t slot_mismatches = 0;
  for (graph::EdgeId e = 0; e < network.TotalEdgeSpace(); ++e) {
    for (bool forward : {true, false}) {
      if (final_snap.store->EventCount(e, forward) !=
          scratch.EventCount(e, forward)) {
        ++slot_mismatches;
      }
    }
  }
  r.Fail("published store differs from the scratch store", slot_mismatches);
  core::SampledQueryProcessor reference(city->graph(), scratch);
  uint64_t answer_mismatches = 0;
  for (size_t i = 0; i < pool.size(); i += 16) {
    core::RangeQuery query = Materialize(network, pool[i]);
    core::QueryAnswer live = engine.Answer(query, pool[i].kind, pool[i].bound);
    core::QueryAnswer want = reference.Answer(query, pool[i].kind, pool[i].bound);
    if (live.missed != want.missed || live.estimate != want.estimate) {
      ++answer_mismatches;
    }
  }
  r.Fail("live answer differs from the scratch-store answer",
         answer_mismatches);

  std::sort(capacity.begin(), capacity.end());
  std::fprintf(stderr,
               "open loop: %zu latency samples, writer lag p99 %.1f us; "
               "%zu capacity trials, %.0f..%.0f events/s\n",
               latency_us.size(), layers.writer_lag_p99_us, capacity.size(),
               capacity.front(), capacity.back());
  if (trace) {
    layers.Emit(engine.Snapshot(), r);
  } else if (latency_us.empty()) {
    r.Fail("no measured event became visible");
  } else {
    EmitEndToEnd(Quantile(latency_us, 0.50), Quantile(latency_us, 0.99),
                 capacity[capacity.size() / 2], setup_s, r);
  }
  pipeline.reset();
  std::filesystem::remove_all(wal_root);
  return r;
}

// ---------------------------------------------------------------------------

void PrintResult(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", r.metrics[i].first.c_str(),
                  r.metrics[i].second.first, r.metrics[i].second.second);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: innet_perfbench --workload "
               "warm_read|cold_read|degraded_read|live_ingest --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 4 || !args.count("workload") ||
      !args.count("seed") || !args.count("seconds") || !args.count("trace")) {
    return Usage();
  }
  char* end = nullptr;
  uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage();
  double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0) || seconds > 600.0) return Usage();
  if (args["trace"] != "0" && args["trace"] != "1") return Usage();
  bool trace = args["trace"] == "1";

  const std::string& workload = args["workload"];
  Result result;
  if (workload == "warm_read") {
    result = RunRead(ReadKind::kWarm, seed, seconds, trace);
  } else if (workload == "cold_read") {
    result = RunRead(ReadKind::kCold, seed, seconds, trace);
  } else if (workload == "degraded_read") {
    result = RunRead(ReadKind::kDegraded, seed, seconds, trace);
  } else if (workload == "live_ingest") {
    result = RunIngest(seed, seconds, trace);
  } else {
    return Usage();
  }
  PrintResult(result);
  return 0;
}

}  // namespace
}  // namespace innet::perfbench

int main(int argc, char** argv) { return innet::perfbench::Main(argc, argv); }
