#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/build_info.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_cost.h"
#include "obs/query_digest.h"
#include "obs/slo.h"
#include "obs/slowlog.h"
#include "obs/telemetry_server.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace innet::obs {
namespace {

// Minimal real-socket HTTP client: the conformance tests must exercise the
// actual accept loop, not just HandleRequest().
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  std::string request = "GET " + path +
                        " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string Body(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(TelemetryServerTest, MetricsScrapeByteIdenticalToPrometheusExport) {
  MetricsRegistry registry;
  registry.GetCounter("innet_queries_total", "Answered queries")
      .Increment(17);
  registry.GetGauge("innet_store_generation", "Published generation")
      .Set(3.0);
  registry.GetGaugeWithLabels("innet_mode", "Serving mode", "mode=\"batch\"")
      .Set(1.0);
  registry.GetGaugeWithLabels("innet_mode", "Serving mode", "mode=\"live\"")
      .Set(0.0);
  Histogram& latency =
      registry.GetHistogram("innet_lat", {1.0, 10.0}, "Latency");
  latency.Observe(0.5);
  latency.Observe(5.0);
  latency.Observe(50.0);
  registry.GetHistogram("innet_empty", {1.0}, "No samples");
  RegisterBuildInfo(registry);

  TelemetryServerOptions options;  // port 0: ephemeral
  TelemetryServer server(registry, options);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.Port(), 0);

  std::string response = HttpGet(server.Port(), "/metrics");
  EXPECT_EQ(response.compare(0, 15, "HTTP/1.1 200 OK"), 0) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  std::string body = Body(response);

  // Rendered AFTER the scrape so the scrape counter (incremented before
  // the server renders) agrees; no other writer runs in between.
  std::ostringstream golden;
  WritePrometheus(registry, golden);
  EXPECT_EQ(body, golden.str());

  // Content-Length matches the body exactly (Connection: close framing
  // would mask an error here).
  std::string want_length =
      "Content-Length: " + std::to_string(body.size()) + "\r\n";
  EXPECT_NE(response.find(want_length), std::string::npos);

  // The scrape itself is visible: a second scrape reports one more request.
  std::string second = Body(HttpGet(server.Port(), "/metrics"));
  EXPECT_NE(second.find("innet_telemetry_requests_total 2\n"),
            std::string::npos);
  EXPECT_GE(server.RequestsServed(), 2u);
  server.Stop();
}

TEST(TelemetryServerTest, HealthzAndReadyzProbes) {
  MetricsRegistry registry;
  TelemetryServer server(registry, TelemetryServerOptions{});

  EXPECT_NE(server.HandleRequest("GET /healthz HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 200"),
            std::string::npos);

  // No probes registered: vacuously ready.
  std::string ready = server.HandleRequest("GET /readyz HTTP/1.1\r\n\r\n");
  EXPECT_NE(ready.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(ready.find("ready"), std::string::npos);

  std::atomic<bool> published{false};
  server.AddReadinessProbe("store_published",
                           [&published] { return published.load(); });
  server.AddReadinessProbe("always_ok", [] { return true; });
  std::string not_ready =
      server.HandleRequest("GET /readyz HTTP/1.1\r\n\r\n");
  EXPECT_NE(not_ready.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(not_ready.find("store_published"), std::string::npos);
  EXPECT_EQ(not_ready.find("always_ok"), std::string::npos);

  published.store(true);
  EXPECT_NE(server.HandleRequest("GET /readyz HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 200"),
            std::string::npos);
}

TEST(TelemetryServerTest, MalformedAndUnknownRequests) {
  MetricsRegistry registry;
  TelemetryServer server(registry, TelemetryServerOptions{});

  // No spaces in the request line: not parseable as METHOD PATH VERSION.
  EXPECT_NE(server.HandleRequest("GARBAGE\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("GET  HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  // Read-only plane: anything but GET is rejected.
  EXPECT_NE(server.HandleRequest("POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("DELETE /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("GET /nope HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
  // Query strings route to the base path.
  EXPECT_NE(server.HandleRequest("GET /healthz?v=1 HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 200"),
            std::string::npos);

  // Over a real socket, a malformed request must not wedge the serial
  // accept loop for the next client.
  ASSERT_TRUE(server.Start());
  std::string bad = HttpGet(server.Port(), "");  // "GET  HTTP/1.1": 400
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(HttpGet(server.Port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  server.Stop();
}

TEST(TelemetryServerTest, VarzReportsBuildCountersAndSlos) {
  MetricsRegistry registry;
  registry.GetCounter("reqs_total").Increment(5);
  registry.GetGauge("depth").Set(2.5);
  registry.GetHistogram("lat", {1.0, 10.0}).Observe(3.0);

  TimeSeriesCollector collector(registry);
  collector.SampleNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  registry.GetCounter("reqs_total").Increment(5);
  collector.SampleNow();

  std::vector<SloObjective> objectives;
  ASSERT_TRUE(ParseSloConfig(
      "slo name=depth_high metric=depth signal=gauge threshold=1 "
      "short=0.0001 long=0.0001\n",
      &objectives));
  SloEngine slo(registry, collector, std::move(objectives));
  slo.Evaluate();
  ASSERT_TRUE(slo.IsBurning("depth_high"));

  TelemetryServer server(registry, TelemetryServerOptions{});
  server.AttachCollector(&collector);
  server.AttachSloEngine(&slo);
  std::string response = server.HandleRequest("GET /varz HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  std::string body = Body(response);
  ASSERT_FALSE(body.empty());
  while (!body.empty() && body.back() == '\n') body.pop_back();
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '}');
  EXPECT_NE(body.find("\"build\":{\"version\":\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"reqs_total\":10"), std::string::npos);
  EXPECT_NE(body.find("\"depth\":2.5"), std::string::npos);
  EXPECT_NE(body.find("\"rates_per_sec\":"), std::string::npos);
  EXPECT_NE(body.find("\"slo_burning\":[\"depth_high\"]"),
            std::string::npos);
}

TEST(TimeSeriesTest, RatesMaximaAndWindowedQuantiles) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("events_total");
  Gauge& gauge = registry.GetGauge("level");
  Histogram& histogram = registry.GetHistogram("lat", {1.0, 2.0});

  TimeSeriesCollector collector(registry);
  EXPECT_EQ(collector.CounterRate("events_total", 10.0), 0.0);

  gauge.Set(4.0);
  for (int i = 0; i < 4; ++i) histogram.Observe(0.5);
  collector.SampleNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  counter.Increment(100);
  gauge.Set(9.0);
  for (int i = 0; i < 4; ++i) histogram.Observe(1.5);
  collector.SampleNow();
  EXPECT_EQ(collector.SamplesTaken(), 2u);

  // Rate derives from the cumulative delta over elapsed sample time.
  EXPECT_GT(collector.CounterRate("events_total", 10.0), 0.0);
  EXPECT_DOUBLE_EQ(collector.Series("events_total").back().value, 100.0);
  EXPECT_DOUBLE_EQ(collector.Series("level").back().value, 9.0);
  EXPECT_DOUBLE_EQ(collector.WindowedMax("level", 10.0), 9.0);

  // The windowed quantile sees only the delta between the window's edge
  // samples: the four 1.5s, not the four 0.5s recorded before the first
  // sample... which ARE in the first cumulative snapshot, hence excluded.
  double q50 = collector.WindowedQuantile("lat", 10.0, 0.5);
  EXPECT_GT(q50, 1.0);
  EXPECT_LE(q50, 2.0);
  // Lifetime quantile over all eight observations lands in the first
  // bucket: the window view and lifetime view answer different questions.
  EXPECT_LE(histogram.Percentile(0.5), 1.0);

  // Ring eviction: many samples, bounded slots, oldest dropped. A reader
  // of a 2 s window makes the rings hold 2 s / 250 ms + 1 = 9 samples; a
  // shorter window afterwards leaves that alone.
  collector.RetainWindow(2.0);
  collector.RetainWindow(0.5);
  for (int i = 0; i < 20; ++i) collector.SampleNow();
  std::vector<TimeSeriesSample> series = collector.Series("events_total");
  ASSERT_EQ(series.size(), 9u);
  EXPECT_TRUE(std::is_sorted(
      series.begin(), series.end(),
      [](const TimeSeriesSample& a, const TimeSeriesSample& b) {
        return a.at_seconds < b.at_seconds;
      }));

  std::vector<std::pair<std::string, double>> rates =
      collector.AllCounterRates(10.0);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_EQ(rates[0].first, "events_total");
}

// Each reader sizes the rings for the longest window it reads: /varz its
// 10 s rate window, an SLO objective its long window. A long=60 objective
// must see 60 s of history (241 samples 250 ms apart), not a fixed ring.
TEST(TimeSeriesTest, RingsHoldTheLongestWindowTheirReadersRead) {
  MetricsRegistry registry;
  registry.GetCounter("reqs_total");
  TimeSeriesCollector collector(registry);
  auto held_after_300 = [&] {
    for (int i = 0; i < 300; ++i) collector.SampleNow();
    return collector.Series("reqs_total").size();
  };
  EXPECT_EQ(held_after_300(), 2u);  // No reader yet: one delta.

  TelemetryServer server(registry, TelemetryServerOptions{});
  server.AttachCollector(&collector);
  EXPECT_EQ(held_after_300(), 41u);  // /varz: 10 s.

  std::vector<SloObjective> objectives;
  ASSERT_TRUE(ParseSloConfig(
      "slo name=rate metric=reqs_total signal=rate threshold=1 short=5 "
      "long=60\n",
      &objectives));
  SloEngine slo(registry, collector, std::move(objectives));
  EXPECT_GE(held_after_300(), 241u);
}

TEST(SloTest, ParseConfigAcceptsValidRejectsMalformed) {
  std::vector<SloObjective> objectives;
  EXPECT_TRUE(ParseSloConfig(
      "# comment line\n"
      "\n"
      "slo name=p95_lat metric=innet_lat signal=p95 threshold=5000 "
      "short=5 long=30\n"
      "slo name=low_rate metric=reqs signal=rate threshold=1 below=1 "
      "short=10 long=60  # trailing comment\n",
      &objectives));
  ASSERT_EQ(objectives.size(), 2u);
  EXPECT_EQ(objectives[0].name, "p95_lat");
  EXPECT_EQ(objectives[0].metric, "innet_lat");
  EXPECT_EQ(objectives[0].signal, SloSignal::kP95);
  EXPECT_DOUBLE_EQ(objectives[0].threshold, 5000.0);
  EXPECT_FALSE(objectives[0].below);
  EXPECT_DOUBLE_EQ(objectives[0].short_window_seconds, 5.0);
  EXPECT_DOUBLE_EQ(objectives[0].long_window_seconds, 30.0);
  EXPECT_EQ(objectives[1].signal, SloSignal::kRate);
  EXPECT_TRUE(objectives[1].below);

  std::vector<SloObjective> rejected;
  // Missing name.
  EXPECT_FALSE(ParseSloConfig(
      "slo metric=m signal=gauge threshold=1 short=1 long=2\n", &rejected));
  // long < short.
  EXPECT_FALSE(ParseSloConfig(
      "slo name=x metric=m signal=gauge threshold=1 short=5 long=2\n",
      &rejected));
  // Unknown signal.
  EXPECT_FALSE(ParseSloConfig(
      "slo name=x metric=m signal=p42 threshold=1 short=1 long=2\n",
      &rejected));
  // Unknown key and non-slo leading token.
  EXPECT_FALSE(ParseSloConfig(
      "slo name=x metric=m signal=gauge threshold=1 short=1 long=2 "
      "bogus=1\n",
      &rejected));
  EXPECT_FALSE(ParseSloConfig("objective name=x\n", &rejected));
  // A long window the rings cannot hold (over an hour, or infinite).
  EXPECT_FALSE(ParseSloConfig(
      "slo name=x metric=m signal=gauge threshold=1 short=1 long=3601\n",
      &rejected));
  EXPECT_FALSE(ParseSloConfig(
      "slo name=x metric=m signal=gauge threshold=1 short=1 long=inf\n",
      &rejected));
  EXPECT_TRUE(ParseSloConfig(
      "slo name=x metric=m signal=gauge threshold=1 short=1 long=3600\n",
      &rejected));
}

// Captures WARN+ lines so the stationary/regression contrast is assertable.
struct SloLogCapture {
  static std::vector<std::string>& Lines() {
    static std::vector<std::string> lines;
    return lines;
  }
  static void Sink(LogLevel level, const char*, int,
                   const std::string& message) {
    if (level >= LogLevel::kWarn) Lines().push_back(message);
  }
};

TEST(SloTest, LatchesOnLatencyRegressionSilentWhenStationary) {
  MetricsRegistry registry;
  Histogram& latency =
      registry.GetHistogram("innet_lat_micros", {1.0, 10.0, 100.0});
  TimeSeriesCollector collector(registry);

  // Tiny windows + spaced samples force the edge pair to the last two
  // slots, so each Evaluate sees exactly the observations since the
  // previous sample: deterministic, no wall-clock coupling.
  std::vector<SloObjective> objectives;
  ASSERT_TRUE(ParseSloConfig(
      "slo name=lat_p95 metric=innet_lat_micros signal=p95 threshold=50 "
      "short=0.0001 long=0.0001\n",
      &objectives));
  SloEngine engine(registry, collector, std::move(objectives));
  Gauge& burning_gauge =
      registry.GetGaugeWithLabels("innet_slo_burning", "slo=\"lat_p95\"");
  EXPECT_DOUBLE_EQ(burning_gauge.Value(), 0.0);

  SloLogCapture::Lines().clear();
  SetLogSink(&SloLogCapture::Sink);

  auto tick = [&collector, &engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    collector.SampleNow();
    engine.Evaluate();
  };

  // Stationary: healthy latencies, several evaluation rounds, no alert.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) latency.Observe(0.5);
    tick();
    EXPECT_FALSE(engine.IsBurning("lat_p95"));
  }
  EXPECT_TRUE(SloLogCapture::Lines().empty());
  EXPECT_TRUE(engine.Burning().empty());

  // Injected regression: the windowed p95 jumps over the threshold and
  // the SLO latches into the gauge.
  for (int i = 0; i < 20; ++i) latency.Observe(99.0);
  tick();
  EXPECT_TRUE(engine.IsBurning("lat_p95"));
  EXPECT_DOUBLE_EQ(burning_gauge.Value(), 1.0);
  ASSERT_EQ(engine.Burning().size(), 1u);
  EXPECT_EQ(engine.Burning()[0], "lat_p95");
  ASSERT_EQ(SloLogCapture::Lines().size(), 1u);
  EXPECT_NE(SloLogCapture::Lines()[0].find("BURNING"), std::string::npos);

  // Latched while still breaching: no repeat warnings.
  for (int i = 0; i < 20; ++i) latency.Observe(99.0);
  tick();
  EXPECT_TRUE(engine.IsBurning("lat_p95"));
  EXPECT_EQ(SloLogCapture::Lines().size(), 1u);

  // Recovery clears the gauge and logs the transition once.
  for (int i = 0; i < 20; ++i) latency.Observe(0.5);
  tick();
  EXPECT_FALSE(engine.IsBurning("lat_p95"));
  EXPECT_DOUBLE_EQ(burning_gauge.Value(), 0.0);
  ASSERT_EQ(SloLogCapture::Lines().size(), 2u);
  EXPECT_NE(SloLogCapture::Lines()[1].find("recovered"), std::string::npos);

  SetLogSink(nullptr);
}

TEST(FlightRecorderTest, NotesSurviveToParseableDump) {
  char dir_template[] = "/tmp/innet_flight_XXXXXX";
  char* dir = mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);

  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Configure(dir);
  ASSERT_TRUE(recorder.Configured());
  uint64_t before = recorder.NotesTaken();
  recorder.Note("store", "publish_generation", 7.0);
  recorder.Note("wal", "error", 1.0);
  recorder.Note("engine", "batch_queries", 128.0);
  EXPECT_EQ(recorder.NotesTaken(), before + 3);

  ASSERT_TRUE(recorder.DumpNow("unit-test"));

  // Exactly one flight-<pid>-<seq>.json appears in the fresh directory. The
  // global recorder's sequence number keeps growing across dumps (and test
  // repeats), so the dump is found by listing, not by guessing <seq>.
  std::string path;
  {
    std::string prefix = "flight-" + std::to_string(getpid()) + "-";
    size_t dumps = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) != 0 || entry.path().extension() != ".json") {
        continue;
      }
      ++dumps;
      path = entry.path().string();
    }
    ASSERT_EQ(dumps, 1u) << "expected one flight dump under " << dir;
  }

  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  std::string dump = contents.str();
  EXPECT_NE(dump.find("\"schema\":\"innet-flight-v1\""), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"unit-test\""), std::string::npos);
  EXPECT_NE(dump.find("\"build\":{"), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"store\""), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"publish_generation\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"value\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"wal\""), std::string::npos);
  EXPECT_NE(dump.find("\"value\":128"), std::string::npos);
  // Balanced braces/brackets; no trailing garbage after the close.
  EXPECT_EQ(dump.front(), '{');
  ASSERT_FALSE(dump.empty());
  size_t last = dump.find_last_not_of('\n');
  EXPECT_EQ(dump[last], '}');

  // The ring wraps without corruption: overfill it, dump again, and the
  // record array stays bounded by the ring size.
  for (size_t i = 0; i < FlightRecorder::kRecords + 32; ++i) {
    recorder.Note("test", "wrap", static_cast<double>(i));
  }
  ASSERT_TRUE(recorder.DumpNow("unit-test-wrap"));

  std::filesystem::remove_all(dir);
}

// The TSan CI job runs this binary: scrapes must be clean against live
// metric writers, the background sampling thread, and a second thread
// sampling every 2 ms (the background period, 250 ms, would sample only
// once or twice in the test's lifetime).
TEST(TelemetryServerTest, ConcurrentScrapeUnderIngestIsRaceFree) {
  MetricsRegistry registry;
  Counter& events = registry.GetCounter("events_total", "writer hammer");
  Gauge& depth = registry.GetGauge("depth");
  Histogram& latency = registry.GetHistogram("lat", {1.0, 10.0, 100.0});

  TimeSeriesCollector collector(registry);
  collector.Start();

  TelemetryServer server(registry, TelemetryServerOptions{});
  server.AttachCollector(&collector);
  server.AddReadinessProbe("events_flowing",
                           [&events] { return events.Value() > 0; });
  ASSERT_TRUE(server.Start());
  uint16_t port = server.Port();
  ASSERT_NE(port, 0);

  std::atomic<bool> writing{true};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t i = 0;
      while (writing.load(std::memory_order_relaxed)) {
        events.Increment();
        depth.Set(static_cast<double>(t));
        latency.Observe(static_cast<double>(i % 128));
        ++i;
      }
    });
  }
  std::thread sampler([&] {
    do {
      collector.SampleNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } while (writing.load(std::memory_order_relaxed));
  });

  constexpr int kScrapers = 2;
  constexpr int kRequestsEach = 12;
  std::vector<std::thread> scrapers;
  std::atomic<int> ok_responses{0};
  const char* paths[] = {"/metrics", "/varz", "/healthz", "/readyz"};
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&, s] {
      for (int i = 0; i < kRequestsEach; ++i) {
        std::string response = HttpGet(port, paths[(s + i) % 4]);
        if (response.compare(0, 12, "HTTP/1.1 200") == 0 ||
            response.compare(0, 12, "HTTP/1.1 503") == 0) {
          ok_responses.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  writing.store(false);
  for (std::thread& writer : writers) writer.join();
  sampler.join();
  collector.Stop();
  server.Stop();

  EXPECT_EQ(ok_responses.load(), kScrapers * kRequestsEach);
  EXPECT_GE(server.RequestsServed(),
            static_cast<uint64_t>(kScrapers * kRequestsEach));
  EXPECT_GT(events.Value(), 0u);
  EXPECT_GT(collector.SamplesTaken(), 0u);
}

TEST(TelemetryServerTest, TracesEndpointHonorsLimitAndFormat) {
  MetricsRegistry registry;
  TelemetryServer server(registry, TelemetryServerOptions{});

  // No tracer attached: valid requests still answer with an empty
  // document rather than an error.
  EXPECT_NE(server.HandleRequest("GET /traces HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 200"),
            std::string::npos);

  Tracer tracer(TracerOptions{});
  server.AttachTracer(&tracer);
  for (int i = 0; i < 5; ++i) tracer.Record(QueryCostProfile{}, i, false);

  std::string all = Body(
      server.HandleRequest("GET /traces HTTP/1.1\r\n\r\n"));
  size_t lines = 0;
  for (char c : all) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 5u);

  // ?limit=N keeps the most recent N.
  std::string limited = Body(
      server.HandleRequest("GET /traces?limit=2 HTTP/1.1\r\n\r\n"));
  lines = 0;
  for (char c : limited) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
  // The most recent traces survive the trim: query ids 3 and 4.
  EXPECT_NE(limited.find("\"query\":4"), std::string::npos);
  EXPECT_EQ(limited.find("\"query\":0"), std::string::npos);

  // ?format=chrome returns one Chrome trace-event JSON array.
  std::string chrome_response =
      server.HandleRequest("GET /traces?format=chrome&limit=3 HTTP/1.1\r\n\r\n");
  EXPECT_NE(chrome_response.find("HTTP/1.1 200"), std::string::npos);
  std::string chrome = Body(chrome_response);
  while (!chrome.empty() && chrome.back() == '\n') chrome.pop_back();
  ASSERT_FALSE(chrome.empty());
  EXPECT_EQ(chrome.front(), '[');
  EXPECT_EQ(chrome.back(), ']');
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ts\":"), std::string::npos);
  EXPECT_NE(chrome.find("\"dur\":"), std::string::npos);

  // Malformed parameters are a client error, not a crash or a fallback.
  EXPECT_NE(server.HandleRequest("GET /traces?limit=abc HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("GET /traces?limit=-1 HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("GET /traces?format=xml HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  // Unknown parameters are ignored, not rejected.
  EXPECT_NE(server.HandleRequest("GET /traces?foo=1 HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 200"),
            std::string::npos);
}

TEST(TelemetryServerTest, QueryzServesDigestsAndSlowLog) {
  MetricsRegistry registry;
  TelemetryServer server(registry, TelemetryServerOptions{});

  // Nothing attached: an empty digest document, not an error.
  std::string empty = Body(
      server.HandleRequest("GET /queryz HTTP/1.1\r\n\r\n"));
  EXPECT_NE(empty.find("\"recorded\":0"), std::string::npos);

  QueryDigestTable digest;
  SlowQueryLogOptions slow_options;
  slow_options.threshold_micros = 1.0;
  slow_options.registry = &registry;
  SlowQueryLog slowlog(slow_options);
  server.AttachDigestTable(&digest);
  server.AttachSlowLog(&slowlog);

  QueryCostProfile profile;
  profile.kind = 0;
  profile.region_decile = 4;
  profile.path = QueryPathKind::kCacheHit;
  profile.boundary_edges = 9;
  profile.total_nanos = 50000;
  for (int i = 0; i < 7; ++i) digest.Record(profile);
  ASSERT_TRUE(slowlog.Admit());
  slowlog.Record(profile, ExplainRecord{});
  ASSERT_TRUE(slowlog.Admit());
  slowlog.Record(profile, ExplainRecord{});

  std::string body = Body(
      server.HandleRequest("GET /queryz HTTP/1.1\r\n\r\n"));
  EXPECT_NE(body.find("\"recorded\":7"), std::string::npos);
  EXPECT_NE(body.find("\"digests\":1"), std::string::npos);
  EXPECT_NE(body.find("static/lower/d4/exact/cache_hit"),
            std::string::npos);

  // ?slow=1 flips to the slow-query ring; ?limit trims it.
  std::string slow = Body(
      server.HandleRequest("GET /queryz?slow=1&limit=1 HTTP/1.1\r\n\r\n"));
  EXPECT_NE(slow.find("\"slow\":["), std::string::npos);
  size_t records = 0;
  for (size_t at = slow.find("\"ts_unix\":"); at != std::string::npos;
       at = slow.find("\"ts_unix\":", at + 1)) {
    ++records;
  }
  EXPECT_EQ(records, 1u);

  EXPECT_NE(server.HandleRequest("GET /queryz?slow=2 HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(server.HandleRequest("GET /queryz?limit=x HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);

  // /varz carries the summary counters for both planes.
  std::string varz = Body(
      server.HandleRequest("GET /varz HTTP/1.1\r\n\r\n"));
  EXPECT_NE(varz.find("\"query_digest\":{\"recorded\":7,\"digests\":1}"),
            std::string::npos);
  EXPECT_NE(varz.find("\"slowlog\":{\"records\":2,\"suppressed\":0}"),
            std::string::npos);
}

}  // namespace
}  // namespace innet::obs
