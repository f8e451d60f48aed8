// Embedded telemetry HTTP endpoint (docs/OBSERVABILITY.md §Live telemetry
// & SLOs).
//
// A dependency-free HTTP/1.1 server on a dedicated thread: one blocking
// accept loop, one request per connection, Connection: close. This is an
// operator plane, not a data plane — scrape cadence is seconds, so serial
// handling is deliberate (no thread pool to reason about, nothing shared
// with the query path beyond the lock-free metric reads). Binds
// 127.0.0.1 by default; port 0 picks an ephemeral port (Port() reports
// it).
//
// Endpoints:
//   GET /metrics  Prometheus text — byte-identical to WritePrometheus()
//                 of the same registry snapshot.
//   GET /healthz  Liveness: 200 "ok" while the process serves.
//   GET /readyz   Readiness: 200 only when every registered probe passes;
//                 503 lists the failing probes one per line.
//   GET /varz     JSON snapshot: build info, uptime, counters, gauges,
//                 histogram summaries, windowed rates, burning SLOs,
//                 digest-table and slow-log summaries.
//   GET /traces   Recent sampled query traces as JSON lines.
//                 ?limit=N caps the response to the N most recent traces;
//                 ?format=chrome renders the Chrome trace-event array
//                 instead. Malformed values get 400.
//   GET /queryz   Query digest table (docs/OBSERVABILITY.md §9): top-K
//                 digests by total time with per-digest p50/p95 and cost
//                 counters. ?limit=N picks K (default 20); ?slow=1
//                 returns the most recent slow-query records instead.
#ifndef INNET_OBS_TELEMETRY_SERVER_H_
#define INNET_OBS_TELEMETRY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace innet::obs {

class QueryDigestTable;
class SloEngine;
class SlowQueryLog;
class TimeSeriesCollector;
class Tracer;

struct TelemetryServerOptions {
  /// 0 binds an ephemeral port; read it back via Port().
  uint16_t port = 0;
  /// Loopback by default: telemetry is an operator plane, exposing it
  /// beyond the host is an explicit decision.
  std::string bind_address = "127.0.0.1";
};

/// Serves the registry (and optional collector/SLO/tracer views) over
/// HTTP. Construction does not open sockets; Start() does.
class TelemetryServer {
 public:
  TelemetryServer(MetricsRegistry& registry,
                  const TelemetryServerOptions& options);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Optional views; attach before Start(). Null detaches. The collector
  /// retains the /varz rate window (10 s).
  void AttachCollector(TimeSeriesCollector* collector);
  void AttachSloEngine(SloEngine* slo) { slo_ = slo; }
  void AttachTracer(Tracer* tracer) { tracer_ = tracer; }
  void AttachDigestTable(QueryDigestTable* digest) { digest_ = digest; }
  void AttachSlowLog(SlowQueryLog* slowlog) { slowlog_ = slowlog; }

  /// Registers a /readyz probe. Probes run on the serving thread per
  /// request; keep them cheap (metric reads, atomic loads).
  void AddReadinessProbe(const std::string& name,
                         std::function<bool()> probe);

  /// Binds, listens, and starts the accept thread. Returns false (and
  /// logs ERROR) when the socket cannot be bound.
  bool Start();

  /// Stops the accept loop and joins the thread. Idempotent; also run by
  /// the destructor.
  void Stop();

  /// The bound port; 0 before a successful Start().
  uint16_t Port() const { return port_.load(std::memory_order_acquire); }

  uint64_t RequestsServed() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Parses one HTTP request and returns the full response bytes
  /// (status line, headers, body). Public so conformance tests can
  /// exercise routing and malformed-request handling without sockets.
  std::string HandleRequest(const std::string& request);

 private:
  std::string MetricsBody();
  std::string VarzBody();
  /// Full /traces response (status line included): honors ?limit=N and
  /// ?format=chrome, 400 on malformed values.
  std::string TracesResponse(const std::string& query_string);
  /// Full /queryz response: digest-table JSON, or the slow-query ring
  /// under ?slow=1.
  std::string QueryzResponse(const std::string& query_string);
  std::string ReadyzResponse();
  void AcceptLoop();
  void ServeConnection(int fd);

  MetricsRegistry& registry_;
  TelemetryServerOptions options_;
  TimeSeriesCollector* collector_ = nullptr;
  SloEngine* slo_ = nullptr;
  Tracer* tracer_ = nullptr;
  QueryDigestTable* digest_ = nullptr;
  SlowQueryLog* slowlog_ = nullptr;

  std::mutex probes_mutex_;
  std::vector<std::pair<std::string, std::function<bool()>>> probes_;

  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> requests_served_{0};
  int listen_fd_ = -1;
  std::thread thread_;
};

}  // namespace innet::obs

#endif  // INNET_OBS_TELEMETRY_SERVER_H_
