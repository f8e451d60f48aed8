#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/query_digest.h"
#include "obs/slo.h"
#include "obs/slowlog.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace innet::obs {

namespace {

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

constexpr double kVarzRateWindowSeconds = 10.0;  // /varz rates_per_sec.

std::string HttpResponse(int status, const char* reason,
                         const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(status);
  out += " ";
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Splits a raw query string ("limit=5&slow=1") into key/value pairs.
/// Keys without '=' get an empty value; empty segments are skipped.
std::vector<std::pair<std::string, std::string>> ParseQueryParams(
    const std::string& query_string) {
  std::vector<std::pair<std::string, std::string>> params;
  size_t pos = 0;
  while (pos <= query_string.size()) {
    size_t amp = query_string.find('&', pos);
    if (amp == std::string::npos) amp = query_string.size();
    if (amp > pos) {
      std::string token = query_string.substr(pos, amp - pos);
      size_t eq = token.find('=');
      if (eq == std::string::npos) {
        params.emplace_back(std::move(token), "");
      } else {
        params.emplace_back(token.substr(0, eq), token.substr(eq + 1));
      }
    }
    pos = amp + 1;
  }
  return params;
}

/// Parses a strictly-decimal non-negative integer ("0", "42"). False on
/// anything else — empty, signs, hex, trailing junk — which the handlers
/// turn into a 400.
bool ParseNonNegativeInt(const std::string& text, uint64_t* value) {
  if (text.empty() || text.size() > 18) return false;
  uint64_t parsed = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
  }
  *value = parsed;
  return true;
}

/// Writes all of `data`, tolerating short writes. MSG_NOSIGNAL keeps a
/// scraper that hung up early from SIGPIPE-killing the process.
void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent,
                     MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

TelemetryServer::TelemetryServer(MetricsRegistry& registry,
                                 const TelemetryServerOptions& options)
    : registry_(registry), options_(options) {
  // The scrape counter must exist before the first scrape renders, so the
  // first /metrics response already carries it (byte-compat contract).
  registry_.GetCounter("innet_telemetry_requests_total",
                       "HTTP requests served by the telemetry endpoint");
}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::AttachCollector(TimeSeriesCollector* collector) {
  collector_ = collector;
  if (collector_ != nullptr) collector_->RetainWindow(kVarzRateWindowSeconds);
}

void TelemetryServer::AddReadinessProbe(const std::string& name,
                                        std::function<bool()> probe) {
  std::lock_guard<std::mutex> lock(probes_mutex_);
  probes_.emplace_back(name, std::move(probe));
}

bool TelemetryServer::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return true;

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    INNET_LOG(ERROR) << "telemetry: socket() failed: " << std::strerror(errno);
    running_.store(false);
    return false;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    INNET_LOG(ERROR) << "telemetry: bad bind address "
                     << options_.bind_address;
    close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      listen(listen_fd_, 16) != 0) {
    INNET_LOG(ERROR) << "telemetry: cannot bind " << options_.bind_address
                     << ":" << options_.port << ": "
                     << std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    return false;
  }

  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_.store(ntohs(addr.sin_port), std::memory_order_release);

  thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void TelemetryServer::Stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // shutdown() wakes the blocking accept(); close() alone does not on all
  // platforms.
  if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  port_.store(0, std::memory_order_release);
}

void TelemetryServer::AcceptLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_relaxed)) break;
      continue;
    }
    ServeConnection(fd);
    close(fd);
  }
}

void TelemetryServer::ServeConnection(int fd) {
  // A stalled or malicious client must not wedge the serial accept loop.
  struct timeval timeout;
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[2048];
  while (request.size() < 16 * 1024 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
    // A bare GET line terminated by one newline is enough to route.
    if (request.find('\n') != std::string::npos &&
        request.compare(0, 4, "GET ") == 0) {
      break;
    }
  }
  if (request.empty()) return;
  SendAll(fd, HandleRequest(request));
}

std::string TelemetryServer::HandleRequest(const std::string& request) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  size_t line_end = request.find_first_of("\r\n");
  std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  size_t first_space = line.find(' ');
  size_t second_space =
      first_space == std::string::npos ? std::string::npos
                                       : line.find(' ', first_space + 1);
  if (first_space == std::string::npos ||
      second_space == std::string::npos || second_space <= first_space + 1) {
    return HttpResponse(400, "Bad Request", "text/plain",
                        "malformed request line\n");
  }
  std::string method = line.substr(0, first_space);
  std::string path =
      line.substr(first_space + 1, second_space - first_space - 1);
  std::string query_string;
  size_t query = path.find('?');
  if (query != std::string::npos) {
    query_string = path.substr(query + 1);
    path.resize(query);
  }
  if (method != "GET") {
    return HttpResponse(405, "Method Not Allowed", "text/plain",
                        "only GET is supported\n");
  }

  if (path == "/metrics") {
    // Count the scrape BEFORE rendering: the response then reports the
    // same value a local WritePrometheus would see right after, which is
    // what the byte-compat golden test compares.
    registry_.GetCounter("innet_telemetry_requests_total").Increment();
    return HttpResponse(200, "OK", "text/plain; version=0.0.4",
                        MetricsBody());
  }
  if (path == "/healthz") {
    return HttpResponse(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/readyz") {
    return ReadyzResponse();
  }
  if (path == "/varz") {
    return HttpResponse(200, "OK", "application/json", VarzBody());
  }
  if (path == "/traces") {
    return TracesResponse(query_string);
  }
  if (path == "/queryz") {
    return QueryzResponse(query_string);
  }
  return HttpResponse(404, "Not Found", "text/plain",
                      "unknown path " + path + "\n");
}

std::string TelemetryServer::MetricsBody() {
  std::ostringstream out;
  WritePrometheus(registry_, out);
  return out.str();
}

std::string TelemetryServer::ReadyzResponse() {
  std::vector<std::pair<std::string, std::function<bool()>>> probes;
  {
    std::lock_guard<std::mutex> lock(probes_mutex_);
    probes = probes_;
  }
  std::string failing;
  for (auto& [name, probe] : probes) {
    if (!probe()) {
      failing += name;
      failing += "\n";
    }
  }
  if (failing.empty()) {
    return HttpResponse(200, "OK", "text/plain", "ready\n");
  }
  return HttpResponse(503, "Service Unavailable", "text/plain",
                      "not ready:\n" + failing);
}

std::string TelemetryServer::VarzBody() {
  std::string out = "{\"build\":{\"version\":\"";
  out += JsonEscape(BuildVersion());
  out += "\",\"git_sha\":\"";
  out += JsonEscape(BuildGitSha());
  out += "\",\"compiler\":\"";
  out += JsonEscape(BuildCompiler());
  out += "\",\"simd\":\"";
  out += JsonEscape(BuildSimd());
  out += "\"},\"uptime_seconds\":";
  JsonAppendNumber(&out, UptimeSeconds());

  out += ",\"counters\":{";
  bool first = true;
  for (const Counter* counter : registry_.Counters()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(counter->name());
    out += "\":";
    out += std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const Gauge* gauge : registry_.Gauges()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(gauge->labels().empty()
                          ? gauge->name()
                          : gauge->name() + "{" + gauge->labels() + "}");
    out += "\":";
    JsonAppendNumber(&out, gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const Histogram* histogram : registry_.Histograms()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += JsonEscape(histogram->name());
    out += "\":{\"count\":";
    out += std::to_string(histogram->Count());
    out += ",\"sum\":";
    JsonAppendNumber(&out, histogram->Sum());
    out += ",\"p50\":";
    JsonAppendNumber(&out, histogram->Percentile(0.50));
    out += ",\"p95\":";
    JsonAppendNumber(&out, histogram->Percentile(0.95));
    out += "}";
  }
  out += "}";

  if (collector_ != nullptr) {
    out += ",\"rates_per_sec\":{";
    first = true;
    for (const auto& [name, rate] :
         collector_->AllCounterRates(kVarzRateWindowSeconds)) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += JsonEscape(name);
      out += "\":";
      JsonAppendNumber(&out, rate);
    }
    out += "},\"samples_taken\":";
    out += std::to_string(collector_->SamplesTaken());
  }
  if (digest_ != nullptr) {
    out += ",\"query_digest\":{\"recorded\":";
    out += std::to_string(digest_->TotalRecorded());
    out += ",\"digests\":";
    out += std::to_string(digest_->DistinctDigests());
    out += "}";
  }
  if (slowlog_ != nullptr) {
    out += ",\"slowlog\":{\"records\":";
    out += std::to_string(slowlog_->Records());
    out += ",\"suppressed\":";
    out += std::to_string(slowlog_->Suppressed());
    out += "}";
  }
  if (slo_ != nullptr) {
    out += ",\"slo_burning\":[";
    first = true;
    for (const std::string& name : slo_->Burning()) {
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += JsonEscape(name);
      out += "\"";
    }
    out += "]";
  }
  out += "}\n";
  return out;
}

std::string TelemetryServer::TracesResponse(
    const std::string& query_string) {
  // Reject malformed parameters BEFORE touching the tracer: a bad limit
  // on an unattached server is still a client error, not an empty 200.
  bool chrome = false;
  uint64_t limit = 0;
  bool has_limit = false;
  for (const auto& [key, value] : ParseQueryParams(query_string)) {
    if (key == "limit") {
      if (!ParseNonNegativeInt(value, &limit)) {
        return HttpResponse(400, "Bad Request", "text/plain",
                            "bad limit: expected a non-negative integer\n");
      }
      has_limit = true;
    } else if (key == "format") {
      if (value == "chrome") {
        chrome = true;
      } else if (value == "jsonl") {
        chrome = false;
      } else {
        return HttpResponse(400, "Bad Request", "text/plain",
                            "bad format: expected chrome or jsonl\n");
      }
    }
    // Unknown parameters are ignored (standard HTTP leniency).
  }

  std::vector<std::unique_ptr<QueryTrace>> traces;
  if (tracer_ != nullptr) traces = tracer_->SnapshotRing();
  if (has_limit && traces.size() > limit) {
    // SnapshotRing is oldest-first; keep the most recent N.
    traces.erase(traces.begin(),
                 traces.end() - static_cast<ptrdiff_t>(limit));
  }
  std::ostringstream out;
  if (chrome) {
    WriteTracesChromeJson(traces, out);
  } else {
    WriteTracesJsonLines(traces, out);
  }
  return HttpResponse(200, "OK", "application/json", out.str());
}

std::string TelemetryServer::QueryzResponse(
    const std::string& query_string) {
  uint64_t limit = 20;
  bool slow = false;
  for (const auto& [key, value] : ParseQueryParams(query_string)) {
    if (key == "limit") {
      if (!ParseNonNegativeInt(value, &limit)) {
        return HttpResponse(400, "Bad Request", "text/plain",
                            "bad limit: expected a non-negative integer\n");
      }
    } else if (key == "slow") {
      if (value == "1") {
        slow = true;
      } else if (value == "0" || value.empty()) {
        slow = false;
      } else {
        return HttpResponse(400, "Bad Request", "text/plain",
                            "bad slow: expected 0 or 1\n");
      }
    }
  }

  if (slow) {
    std::string body = "{\"slow\":[";
    if (slowlog_ != nullptr) {
      std::vector<std::string> records = slowlog_->RecentRecords();
      if (records.size() > limit) {
        records.erase(records.begin(),
                      records.end() - static_cast<ptrdiff_t>(limit));
      }
      bool first = true;
      for (const std::string& record : records) {
        if (!first) body += ",";
        first = false;
        body += "\n";
        body += record;
      }
    }
    body += "]}\n";
    return HttpResponse(200, "OK", "application/json", body);
  }

  if (digest_ == nullptr) {
    return HttpResponse(200, "OK", "application/json",
                        "{\"recorded\":0,\"digests\":0,\"top\":[]}\n");
  }
  return HttpResponse(200, "OK", "application/json",
                      digest_->ToJson(static_cast<size_t>(limit)) + "\n");
}

}  // namespace innet::obs
