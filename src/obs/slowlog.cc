#include "obs/slowlog.h"

#include <chrono>

#include "obs/export.h"
#include "obs/query_digest.h"
#include "util/logging.h"

namespace innet::obs {

namespace {

MetricsRegistry& Resolve(MetricsRegistry* registry) {
  return registry != nullptr ? *registry : MetricsRegistry::Global();
}

}  // namespace

SlowQueryLog::SlowQueryLog(const SlowQueryLogOptions& options)
    : options_(options),
      threshold_nanos_(
          static_cast<uint64_t>(options.threshold_micros * 1000.0)),
      records_(&Resolve(options.registry)
                    .GetCounter("innet_slowlog_records_total",
                                "Slow-query records emitted")),
      suppressed_(&Resolve(options.registry)
                       .GetCounter("innet_slowlog_suppressed_total",
                                   "Slow queries over the rate limit "
                                   "(record suppressed)")),
      tokens_(static_cast<double>(kBurst)) {
  INNET_CHECK(options_.threshold_micros > 0.0);
  if (!options_.path.empty()) {
    file_.open(options_.path, std::ios::out | std::ios::app);
    if (!file_) {
      INNET_LOG(ERROR) << "slowlog: cannot open " << options_.path;
    }
  }
}

SlowQueryLog::~SlowQueryLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_.is_open()) file_.close();
}

bool SlowQueryLog::Admit() {
  std::lock_guard<std::mutex> lock(mutex_);
  double elapsed = refill_timer_.ElapsedSeconds();
  refill_timer_.Restart();
  tokens_ += elapsed * kMaxRecordsPerSec;
  if (tokens_ > kBurst) tokens_ = kBurst;
  if (tokens_ < 1.0) {
    suppressed_->Increment();
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

void SlowQueryLog::Record(const QueryCostProfile& profile,
                          const ExplainRecord& explain) {
  // Wall-clock stamp: a slow-query log is for correlating with external
  // timelines, so unix time (not process uptime) is the useful stamp.
  double ts_unix =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();

  std::string line = "{\"ts_unix\":";
  JsonAppendNumber(&line, ts_unix);
  line += ",\"total_micros\":";
  JsonAppendNumber(&line, static_cast<double>(profile.total_nanos) / 1000.0);
  line += ",\"resolve_micros\":";
  JsonAppendNumber(&line,
                   static_cast<double>(profile.resolve_nanos) / 1000.0);
  line += ",\"integrate_micros\":";
  JsonAppendNumber(&line,
                   static_cast<double>(profile.integrate_nanos) / 1000.0);
  line += ",\"digest\":{\"kind\":\"";
  line += DigestKindName(profile.kind);
  line += "\",\"bound\":\"";
  line += DigestBoundName(profile.bound);
  line += "\",\"decile\":";
  line += std::to_string(profile.region_decile);
  line += ",\"store\":\"";
  line += DigestStoreName(profile.store_kind);
  line += "\",\"path\":\"";
  line += QueryPathKindName(profile.path);
  line += "\"},\"cost\":{\"faces\":";
  line += std::to_string(profile.faces_resolved);
  line += ",\"region_junctions\":";
  line += std::to_string(profile.region_junctions);
  line += ",\"boundary_edges\":";
  line += std::to_string(profile.boundary_edges);
  line += ",\"boundary_sensors\":";
  line += std::to_string(profile.boundary_sensors);
  line += ",\"csr_timestamps\":";
  line += std::to_string(profile.csr_timestamps);
  line += ",\"bucket_probes\":";
  line += std::to_string(profile.bucket_probes);
  line += ",\"store_generation\":";
  line += std::to_string(profile.store_generation);
  line += "},\"explain\":";
  line += explain.ToJson();
  line += "}";

  records_->Increment();
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.push_back(line);
  while (ring_.size() > kKeepLast) ring_.pop_front();
  if (file_.is_open()) {
    file_ << line << "\n";
    file_.flush();
  }
}

std::vector<std::string> SlowQueryLog::RecentRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<std::string>(ring_.begin(), ring_.end());
}

}  // namespace innet::obs
