#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace innet::obs {
namespace {

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// The TSan CI job runs this binary: 8 writer threads hammer one counter
// through the sharded cells and the merged value must be exact once they
// join.
TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter("test_counter");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);

  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment(7);
  EXPECT_EQ(counter.Value(), 7u);
}

TEST(GaugeTest, ConcurrentAddsSumExactly) {
  Gauge gauge("test_gauge");
  gauge.Set(3.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.5);
  gauge.Reset();

  // Integer-valued adds are exactly representable, so the CAS loop must
  // lose no update.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, ConcurrentObservationsCountExactly) {
  Histogram histogram("test_latency", Histogram::LatencyBoundsMicros());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(static_cast<double>(t * kPerThread + i) * 0.01);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.Count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, PercentileErrorWithinOneBucketWidth) {
  // Linear buckets of width 10 over [0, 100]; observations 0.5, 1.5, ...
  // 999.5 scaled into [0, 100) uniformly. The interpolated quantile must
  // land within one bucket width of the exact empirical quantile.
  std::vector<double> bounds;
  for (int i = 1; i <= 10; ++i) bounds.push_back(10.0 * i);
  constexpr double kBucketWidth = 10.0;
  Histogram histogram("test_uniform", bounds);
  constexpr int kSamples = 1000;
  std::vector<double> values;
  values.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    double v = (i + 0.5) * 100.0 / kSamples;
    values.push_back(v);
    histogram.Observe(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    double exact = values[static_cast<size_t>(q * (kSamples - 1))];
    double approx = histogram.Percentile(q);
    EXPECT_NEAR(approx, exact, kBucketWidth)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  double expected_sum = 0.0;
  for (double v : values) expected_sum += v;
  EXPECT_NEAR(histogram.Sum(), expected_sum, 1e-6);
}

TEST(HistogramTest, OverflowLandsInInfBucket) {
  Histogram histogram("test_inf", {1.0, 2.0});
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  histogram.Observe(100.0);  // Beyond the last finite bound.
  std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  // A quantile landing in the +Inf overflow bucket has no finite upper
  // bound; reporting the last finite bound would understate tail latency,
  // so the estimate is honest: infinity.
  EXPECT_TRUE(std::isinf(histogram.Percentile(1.0)));
  EXPECT_GT(histogram.Percentile(1.0), 0.0);
  // Quantiles inside finite buckets still interpolate.
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.3), 0.9);
  EXPECT_EQ(Histogram("empty", {1.0}).Percentile(0.5), 0.0);
}

// Prometheus `le` buckets are inclusive: a value equal to a bound belongs
// to that bound's bucket. Integer-microsecond durations land exactly on the
// power-of-4 duration bounds, so this decides where they are counted.
TEST(HistogramTest, ValueOnABoundLandsInThatBoundsBucket) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h", {1.0, 4.0, 16.0});
  histogram.Observe(1.0);
  histogram.Observe(4.0);
  histogram.Observe(4.0 + 1e-9);
  histogram.Observe(16.0);
  histogram.Observe(std::nan(""));  // Comparable to nothing: +Inf bucket.
  std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 1u);

  std::ostringstream out;
  WritePrometheus(registry, out);
  std::string text = out.str();
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"4\"} 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"16\"} 4\n"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 5\n"), std::string::npos)
      << text;
}

TEST(HistogramTest, PercentileFromBucketCountsFreeFunction) {
  std::vector<double> bounds = {1.0, 2.0};
  // counts has bounds.size() + 1 entries; the last is the overflow bucket.
  EXPECT_DOUBLE_EQ(PercentileFromBucketCounts(bounds, {4, 0, 0}, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(PercentileFromBucketCounts(bounds, {0, 4, 0}, 0.5), 1.5);
  EXPECT_TRUE(
      std::isinf(PercentileFromBucketCounts(bounds, {0, 0, 4}, 0.5)));
  EXPECT_TRUE(std::isinf(PercentileFromBucketCounts(bounds, {2, 1, 1}, 1.0)));
  // Empty distribution degrades to zero rather than NaN.
  EXPECT_DOUBLE_EQ(PercentileFromBucketCounts(bounds, {0, 0, 0}, 0.99), 0.0);
}

TEST(RegistryTest, DedupsByNameAndListsInOrder) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("zeta", "last");
  Counter& b = registry.GetCounter("alpha", "first");
  Counter& a_again = registry.GetCounter("zeta");
  EXPECT_EQ(&a, &a_again);
  a.Increment(3);
  b.Increment(1);

  std::vector<const Counter*> counters = registry.Counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0]->name(), "alpha");
  EXPECT_EQ(counters[1]->name(), "zeta");

  registry.GetGauge("g").Set(4.0);
  registry.GetHistogram("h", {1.0, 2.0}).Observe(1.5);
  registry.ResetAll();
  EXPECT_EQ(a.Value(), 0u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g").Value(), 0.0);
  EXPECT_EQ(registry.GetHistogram("h", {1.0, 2.0}).Count(), 0u);
}

// A cache miss under a health view: the profile's stage times, nanoseconds.
QueryCostProfile DegradedMissProfile() {
  QueryCostProfile profile;
  profile.health_aware = true;
  profile.degraded = true;
  profile.cache_lookup_nanos = 1000;
  profile.reroute_nanos = 2000;
  profile.resolve_nanos = 6000;
  profile.integrate_nanos = 4000;
  profile.total_nanos = 10000;
  return profile;
}

std::vector<std::string> StageNames(const QueryTrace& trace) {
  std::vector<std::string> names;
  for (const TraceStage& stage : trace.stages()) names.push_back(stage.name);
  return names;
}

TEST(TraceTest, ProfileRendersNestedStages) {
  Tracer tracer(TracerOptions{});
  tracer.Record(DegradedMissProfile(), 12.5, /*cache_hit=*/false);
  std::vector<std::unique_ptr<QueryTrace>> traces = tracer.Drain();
  ASSERT_EQ(traces.size(), 1u);
  const QueryTrace& trace = *traces[0];

  const std::vector<TraceStage>& stages = trace.stages();
  ASSERT_EQ(StageNames(trace),
            (std::vector<std::string>{"cache_lookup", "boundary_resolution",
                                      "degraded_reroute", "degraded_answer"}));
  EXPECT_EQ(stages[0].start_micros, 0.0);
  EXPECT_EQ(stages[0].elapsed_micros, 1.0);
  EXPECT_EQ(stages[1].start_micros, 1.0);
  EXPECT_EQ(stages[1].elapsed_micros, 5.0);
  // The reroute nests inside resolution, flush with its end.
  EXPECT_EQ(stages[2].depth, 1);
  EXPECT_EQ(stages[2].start_micros, 4.0);
  EXPECT_EQ(stages[2].elapsed_micros, 2.0);
  EXPECT_EQ(stages[3].start_micros, 6.0);
  EXPECT_EQ(stages[3].elapsed_micros, 4.0);
  for (size_t i : {0, 1, 3}) EXPECT_EQ(stages[i].depth, 0);
  EXPECT_EQ(trace.TotalMicros(), 10.0);

  std::vector<std::pair<std::string, double>> want = {
      {"cache_hit", 0.0}, {"estimate", 12.5}, {"missed", 0.0},
      {"degraded", 1.0},  {"exec_micros", 10.0}};
  EXPECT_EQ(trace.annotations(), want);
}

TEST(TraceTest, HitsAndMissedRegionsRenderTheirStages) {
  Tracer tracer(TracerOptions{});
  QueryCostProfile hit;
  hit.cache_lookup_nanos = hit.resolve_nanos = 500;
  hit.integrate_nanos = 1500;
  hit.total_nanos = 2000;
  tracer.Record(hit, 3.0, /*cache_hit=*/true);
  QueryCostProfile missed = DegradedMissProfile();
  missed.missed = true;
  missed.degraded = false;
  missed.reroute_nanos = 0;
  tracer.Record(missed, 0.0, /*cache_hit=*/false);
  QueryCostProfile healthy = DegradedMissProfile();
  healthy.health_aware = false;
  healthy.degraded = false;
  healthy.reroute_nanos = 0;
  tracer.Record(healthy, 3.0, /*cache_hit=*/false);

  std::vector<std::unique_ptr<QueryTrace>> traces = tracer.Drain();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(StageNames(*traces[0]),
            (std::vector<std::string>{"cache_lookup", "form_integration"}));
  EXPECT_EQ(traces[0]->stages()[1].start_micros, 0.5);
  EXPECT_EQ(traces[0]->stages()[1].elapsed_micros, 1.5);
  // A region with no satisfying face is never integrated.
  EXPECT_EQ(StageNames(*traces[1]),
            (std::vector<std::string>{"cache_lookup", "boundary_resolution"}));
  EXPECT_EQ(StageNames(*traces[2]),
            (std::vector<std::string>{"cache_lookup", "boundary_resolution",
                                      "form_integration"}));
}

TEST(TracerTest, SamplingKnobAndRingEviction) {
  TracerOptions options;
  options.sample_every = 3;
  options.ring_capacity = 2;
  Tracer tracer(options);
  for (int i = 0; i < 10; ++i) tracer.Record(QueryCostProfile{}, i, false);
  EXPECT_EQ(tracer.Started(), 10u);
  EXPECT_EQ(tracer.Sampled(), 4u);  // Queries 0, 3, 6, 9.

  // The ring keeps only the newest two sampled queries; a snapshot leaves
  // them in place, a drain takes them.
  ASSERT_EQ(tracer.SnapshotRing().size(), 2u);
  std::vector<std::unique_ptr<QueryTrace>> drained = tracer.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0]->id(), 6u);
  EXPECT_EQ(drained[1]->id(), 9u);
  EXPECT_TRUE(tracer.Drain().empty());
  tracer.Record(QueryCostProfile{}, 10.0, false);
  tracer.Record(QueryCostProfile{}, 11.0, false);
  tracer.Record(QueryCostProfile{}, 12.0, false);
  drained = tracer.Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0]->id(), 12u);

  // sample_every = 0 or an empty ring disables tracing entirely.
  for (TracerOptions off : {TracerOptions{256, 0}, TracerOptions{0, 1}}) {
    Tracer disabled(off);
    disabled.Record(QueryCostProfile{}, 1.0, false);
    EXPECT_EQ(disabled.Started(), 1u);
    EXPECT_EQ(disabled.Sampled(), 0u);
    EXPECT_TRUE(disabled.Drain().empty());
  }
}

TEST(ExportTest, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total", "Total requests").Increment(42);
  registry.GetGauge("sensors_dead").Set(3.0);
  Histogram& histogram = registry.GetHistogram("lat", {1.0, 2.0});
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  histogram.Observe(9.0);

  std::ostringstream out;
  WritePrometheus(registry, out);
  std::string text = out.str();
  EXPECT_NE(text.find("# HELP requests_total Total requests\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sensors_dead gauge\n"), std::string::npos);
  EXPECT_NE(text.find("sensors_dead 3\n"), std::string::npos);
  // Histogram buckets are cumulative and close with +Inf == _count.
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 11\n"), std::string::npos);
}

TEST(ExportTest, MetricsAndTracesJsonLines) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(5);
  registry.GetHistogram("h", {1.0}).Observe(0.5);
  std::ostringstream metrics_out;
  WriteMetricsJsonLines(registry, metrics_out);
  std::istringstream metrics_in(metrics_out.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(metrics_in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(metrics_out.str().find(
                "{\"type\":\"counter\",\"name\":\"c\",\"value\":5}"),
            std::string::npos);

  // A trace line's bytes are its schema: /traces and --trace-out serve it.
  Tracer tracer(TracerOptions{});
  QueryCostProfile hit;
  hit.cache_lookup_nanos = hit.resolve_nanos = 500;
  hit.integrate_nanos = 1500;
  hit.total_nanos = 2000;
  tracer.Record(hit, 3.0, /*cache_hit=*/true);
  std::ostringstream traces_out;
  WriteTracesJsonLines(tracer.Drain(), traces_out);
  EXPECT_EQ(traces_out.str(),
            "{\"query\":0,\"total_micros\":2,\"stages\":["
            "{\"name\":\"cache_lookup\",\"start_micros\":0,\"micros\":0.5,"
            "\"depth\":0},"
            "{\"name\":\"form_integration\",\"start_micros\":0.5,"
            "\"micros\":1.5,\"depth\":0}],"
            "\"cache_hit\":1,\"estimate\":3,\"missed\":0,\"degraded\":0,"
            "\"exec_micros\":2}\n");
}

TEST(ExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ExportTest, PrometheusNameSanitization) {
  // Valid characters pass through untouched.
  EXPECT_EQ(PrometheusSanitizeName("innet_queries_answered"),
            "innet_queries_answered");
  EXPECT_EQ(PrometheusSanitizeName("a:b_C9"), "a:b_C9");
  // Reserved / invalid characters collapse to underscores.
  EXPECT_EQ(PrometheusSanitizeName("innet.queries-answered/total"),
            "innet_queries_answered_total");
  EXPECT_EQ(PrometheusSanitizeName("rate (1/s)"), "rate__1_s_");
  // A leading digit (or empty name) gains an underscore prefix.
  EXPECT_EQ(PrometheusSanitizeName("5xx_responses"), "_5xx_responses");
  EXPECT_EQ(PrometheusSanitizeName(""), "_");
}

TEST(ExportTest, PrometheusLabelAndHelpEscaping) {
  EXPECT_EQ(PrometheusEscapeLabel("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusEscapeLabel("back\\slash"), "back\\\\slash");
  EXPECT_EQ(PrometheusEscapeLabel("two\nlines"), "two\\nlines");
  // HELP text escapes backslash and newline, but NOT quotes (it is not a
  // quoted position in the exposition format).
  EXPECT_EQ(PrometheusEscapeHelp("a\\b\nc\"d"), "a\\\\b\\nc\"d");
}

TEST(ExportTest, PrometheusCounterWithReservedCharactersExports) {
  MetricsRegistry registry;
  registry.GetCounter("innet.queries-answered/total", "Total, with \"stuff\"\nand newline")
      .Increment(7);
  std::ostringstream out;
  WritePrometheus(registry, out);
  std::string text = out.str();
  // Name sanitized everywhere it appears; help escaped onto one line.
  EXPECT_NE(text.find("# TYPE innet_queries_answered_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("innet_queries_answered_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# HELP innet_queries_answered_total Total, with "
                      "\"stuff\"\\nand newline\n"),
            std::string::npos);
  EXPECT_EQ(text.find("innet.queries"), std::string::npos);
}

TEST(ExportTest, PrometheusEmptyHistogramExposition) {
  MetricsRegistry registry;
  registry.GetHistogram("empty_hist", {1.0, 10.0}, "No samples yet");
  std::ostringstream out;
  WritePrometheus(registry, out);
  std::string text = out.str();
  // An observation-free histogram still exposes the full bucket chain with
  // zero counts and a zero sum — scrapers must see a consistent series.
  EXPECT_NE(text.find("# TYPE empty_hist histogram\n"), std::string::npos);
  EXPECT_NE(text.find("empty_hist_bucket{le=\"1\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("empty_hist_bucket{le=\"10\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("empty_hist_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("empty_hist_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("empty_hist_count 0\n"), std::string::npos);
}

// Captures emitted log records for assertions.
struct CapturedLog {
  static std::vector<std::string>& Lines() {
    static std::vector<std::string> lines;
    return lines;
  }
  static void Sink(LogLevel level, const char* /*file*/, int /*line*/,
                   const std::string& message) {
    Lines().push_back(std::string(LogLevelName(level)) + ":" + message);
  }
};

TEST(LoggingTest, LevelsFilterAndSinkReceivesPayload) {
  CapturedLog::Lines().clear();
  SetLogSink(&CapturedLog::Sink);
  LogLevel saved = MinLogLevel();

  SetMinLogLevel(LogLevel::kWarn);
  EXPECT_FALSE(LogLevelEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogLevelEnabled(LogLevel::kError));
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return "x";
  };
  INNET_LOG(INFO) << "dropped " << touch();
  INNET_LOG(WARN) << "kept " << touch();
  INNET_LOG(ERROR) << "error " << 42;

  // Disabled levels must not evaluate their streamed operands.
  EXPECT_EQ(evaluations, 1);
  ASSERT_EQ(CapturedLog::Lines().size(), 2u);
  EXPECT_EQ(CapturedLog::Lines()[0], "WARN:kept x");
  EXPECT_EQ(CapturedLog::Lines()[1], "ERROR:error 42");

  SetMinLogLevel(saved);
  SetLogSink(nullptr);
}

TEST(RegistryTest, DuplicateRegistrationHelpConflictWarnsOnce) {
  CapturedLog::Lines().clear();
  SetLogSink(&CapturedLog::Sink);

  MetricsRegistry registry;
  Counter& first = registry.GetCounter("dup_total", "original help");
  // Same help (or no help) is not a conflict.
  registry.GetCounter("dup_total", "original help");
  registry.GetCounter("dup_total");
  EXPECT_TRUE(CapturedLog::Lines().empty());

  // A different help string warns — once — and keeps the first text.
  Counter& again = registry.GetCounter("dup_total", "conflicting help");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(first.help(), "original help");
  ASSERT_EQ(CapturedLog::Lines().size(), 1u);
  const std::string& line = CapturedLog::Lines()[0];
  EXPECT_NE(line.find("WARN:"), std::string::npos);
  EXPECT_NE(line.find("dup_total"), std::string::npos);
  EXPECT_NE(line.find("original help"), std::string::npos);
  EXPECT_NE(line.find("conflicting help"), std::string::npos);

  // Further conflicts on the same name stay silent; the warn is one-time.
  registry.GetCounter("dup_total", "third help");
  registry.GetCounter("dup_total", "fourth help");
  EXPECT_EQ(CapturedLog::Lines().size(), 1u);

  // Gauges and histograms get the same treatment.
  registry.GetGauge("dup_gauge", "a");
  registry.GetGauge("dup_gauge", "b");
  registry.GetHistogram("dup_hist", {1.0}, "a");
  registry.GetHistogram("dup_hist", {1.0}, "b");
  EXPECT_EQ(CapturedLog::Lines().size(), 3u);

  SetLogSink(nullptr);
}

TEST(RegistryTest, LabeledGaugeVariantsAreDistinct) {
  MetricsRegistry registry;
  Gauge& a = registry.GetGaugeWithLabels("info", "kind=\"a\"", "i");
  Gauge& b = registry.GetGaugeWithLabels("info", "kind=\"b\"", "i");
  Gauge& plain = registry.GetGaugeWithLabels("info", "", "i");
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &plain);
  EXPECT_EQ(&a, &registry.GetGaugeWithLabels("info", "kind=\"a\""));
  EXPECT_EQ(&plain, &registry.GetGauge("info"));
  EXPECT_EQ(a.name(), "info");
  EXPECT_EQ(a.labels(), "kind=\"a\"");
  a.Set(1.0);
  b.Set(2.0);
  plain.Set(3.0);

  std::ostringstream out;
  WritePrometheus(registry, out);
  std::string text = out.str();
  // One HELP/TYPE header for the family, one sample per label set.
  EXPECT_EQ(CountOccurrences(text, "# TYPE info gauge\n"), 1u);
  EXPECT_EQ(CountOccurrences(text, "# HELP info i\n"), 1u);
  EXPECT_NE(text.find("info{kind=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("info{kind=\"b\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("info 3\n"), std::string::npos);
}

TEST(BuildInfoTest, RegistersLabeledGaugeAndUptime) {
  MetricsRegistry registry;
  Gauge& uptime = RegisterBuildInfo(registry);
  EXPECT_EQ(uptime.name(), "innet_uptime_seconds");
  // Idempotent: re-registering returns the same uptime gauge.
  EXPECT_EQ(&uptime, &RegisterBuildInfo(registry));

  std::ostringstream out;
  WritePrometheus(registry, out);
  std::string text = out.str();
  EXPECT_NE(text.find("innet_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("git_sha=\""), std::string::npos);
  EXPECT_NE(text.find("compiler=\""), std::string::npos);
  EXPECT_NE(text.find("} 1\n"), std::string::npos);
  EXPECT_NE(text.find("innet_uptime_seconds"), std::string::npos);
  EXPECT_NE(BuildVersion()[0], '\0');
  EXPECT_NE(BuildGitSha()[0], '\0');
  EXPECT_NE(BuildCompiler()[0], '\0');
  EXPECT_GE(UptimeSeconds(), 0.0);
}

}  // namespace
}  // namespace innet::obs
