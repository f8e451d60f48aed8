// Tests for per-query cost accounting (docs/OBSERVABILITY.md §9): the
// shared region-size decile bucketing, the lock-free digest table (exact
// totals under concurrent writers — run under TSan in CI), and the
// rate-limited slow-query log.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/query_cost.h"
#include "obs/query_digest.h"
#include "obs/slowlog.h"
#include "util/timer.h"

namespace innet::obs {
namespace {

TEST(RegionDecileTest, BucketsMatchDivisionFormExhaustively) {
  // RegionDecileBuckets must agree with RegionSizeDecile for every region
  // size, including past the total (clamped to 9) — the digest key and the
  // accuracy histograms share this bucketing.
  for (size_t total = 0; total <= 137; ++total) {
    RegionDecileBuckets buckets(total);
    for (size_t r = 0; r <= 2 * total + 5; ++r) {
      ASSERT_EQ(buckets.Decile(r), RegionSizeDecile(r, total))
          << "total=" << total << " r=" << r;
    }
  }
  // Large totals: the threshold arithmetic must not overflow-drift.
  for (size_t total : {size_t{1000003}, size_t{1} << 40}) {
    RegionDecileBuckets buckets(total);
    for (size_t r : {size_t{0}, total / 10, total / 3, total / 2,
                     total - 1, total, total + 7}) {
      ASSERT_EQ(buckets.Decile(r), RegionSizeDecile(r, total))
          << "total=" << total << " r=" << r;
    }
  }
}

TEST(RegionDecileTest, DefaultAndZeroTotalPinDecileZero) {
  RegionDecileBuckets unset;
  EXPECT_EQ(unset.Decile(0), 0u);
  EXPECT_EQ(unset.Decile(12345), 0u);
  RegionDecileBuckets zero(0);
  EXPECT_EQ(zero.Decile(99), 0u);
}

TEST(QueryDigestTest, IndexAndDecodeAreInverse) {
  for (size_t index = 0; index < kDigestSlots; ++index) {
    DigestKey key = DecodeDigest(index);
    QueryCostProfile profile;
    profile.kind = key.kind;
    profile.bound = key.bound;
    profile.region_decile = key.decile;
    profile.store_kind = key.store_kind;
    profile.path = key.path;
    EXPECT_EQ(DigestIndex(profile), index);
  }
}

QueryCostProfile MakeProfile(uint8_t kind, uint8_t decile,
                             uint64_t total_nanos) {
  QueryCostProfile profile;
  profile.kind = kind;
  profile.bound = 0;
  profile.store_kind = 0;
  profile.path = QueryPathKind::kCacheHit;
  profile.region_decile = decile;
  profile.faces_resolved = 3;
  profile.region_junctions = 40;
  profile.boundary_edges = 11;
  profile.boundary_sensors = 7;
  profile.csr_timestamps = 100;
  profile.bucket_probes = 22;
  profile.resolve_nanos = total_nanos / 4;
  profile.total_nanos = total_nanos;
  profile.integrate_nanos = total_nanos - total_nanos / 4;
  return profile;
}

TEST(QueryDigestTest, MergesCountersAndDerivesIntegrateTime) {
  QueryDigestTable table;
  for (int i = 0; i < 10; ++i) {
    table.Record(MakeProfile(0, 3, 8000));  // 8us total, 2us resolve.
  }
  QueryCostProfile missed = MakeProfile(1, 9, 2000);
  missed.missed = true;
  table.Record(missed);

  EXPECT_EQ(table.TotalRecorded(), 11u);
  EXPECT_EQ(table.DistinctDigests(), 2u);

  std::vector<QueryDigestRow> top = table.TopK(10);
  ASSERT_EQ(top.size(), 2u);
  // Ranked by total accumulated time: the 10x8us digest first.
  EXPECT_EQ(top[0].count, 10u);
  EXPECT_EQ(top[0].key.kind, 0);
  EXPECT_EQ(top[0].key.decile, 3);
  EXPECT_EQ(top[0].missed, 0u);
  EXPECT_EQ(top[0].faces, 30u);
  EXPECT_EQ(top[0].boundary_edges, 110u);
  EXPECT_EQ(top[0].boundary_sensors, 70u);
  EXPECT_EQ(top[0].csr_timestamps, 1000u);
  EXPECT_EQ(top[0].bucket_probes, 220u);
  EXPECT_DOUBLE_EQ(top[0].total_micros, 80.0);
  EXPECT_DOUBLE_EQ(top[0].resolve_micros, 20.0);
  // integrate is derived as total - resolve at merge time.
  EXPECT_DOUBLE_EQ(top[0].integrate_micros, 60.0);
  EXPECT_EQ(top[0].Label(), "static/lower/d3/exact/cache_hit");

  EXPECT_EQ(top[1].count, 1u);
  EXPECT_EQ(top[1].missed, 1u);
  EXPECT_EQ(top[1].Label(), "transient/lower/d9/exact/cache_hit");

  std::string json = table.ToJson(10);
  EXPECT_NE(json.find("\"recorded\":11"), std::string::npos);
  EXPECT_NE(json.find("\"digests\":2"), std::string::npos);
  EXPECT_NE(json.find("\"digest\":\"static/lower/d3/exact/cache_hit\""),
            std::string::npos);
}

TEST(QueryDigestTest, ExactTotalsUnderEightConcurrentWriters) {
  // The ISSUE's exactness contract: per-thread cells (plain stores on the
  // first registrants, fetch_adds on the shared overflow cell) must sum
  // exactly — no lost updates — with 8 writers hammering the same two
  // digests. TSan runs this in CI.
  QueryDigestTable table;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&table, t] {
      for (int i = 0; i < kPerThread; ++i) {
        table.Record(MakeProfile(static_cast<uint8_t>(t % 2),
                                 static_cast<uint8_t>(t % 2 == 0 ? 2 : 7),
                                 1000));
      }
    });
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(table.TotalRecorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(table.DistinctDigests(), 2u);
  std::vector<QueryDigestRow> top = table.TopK(4);
  ASSERT_EQ(top.size(), 2u);
  uint64_t expected = static_cast<uint64_t>(kThreads / 2) * kPerThread;
  EXPECT_EQ(top[0].count, expected);
  EXPECT_EQ(top[1].count, expected);
  EXPECT_EQ(top[0].boundary_edges, expected * 11);
  EXPECT_EQ(top[1].boundary_edges, expected * 11);
}

TEST(QueryDigestTest, ExactTotalsWithMoreWritersThanCells) {
  // More recording threads than private cells: the late registrants all
  // share the overflow cell via fetch_adds, and the sum must stay exact.
  QueryDigestTable table;
  constexpr int kThreads = 24;  // > kMetricCells (16).
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&table] {
      for (int i = 0; i < kPerThread; ++i) {
        table.Record(MakeProfile(0, 5, 1000));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(table.TotalRecorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  std::vector<QueryDigestRow> top = table.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].count, static_cast<uint64_t>(kThreads) * kPerThread);
}

ExplainRecord MakeExplain() {
  ExplainRecord explain;
  explain.kind = "static";
  explain.bound = "lower";
  explain.path = "sampled";
  explain.region_cells = 40;
  explain.resolved_cells = 44;
  explain.boundary_edges = 11;
  explain.boundary_sensors = 7;
  return explain;
}

TEST(SlowLogTest, ThresholdGateUsesLatency) {
  SlowQueryLogOptions options;
  options.threshold_micros = 10.0;
  MetricsRegistry registry;
  options.registry = &registry;
  SlowQueryLog log(options);

  QueryCostProfile fast = MakeProfile(0, 1, 5000);  // 5us < 10us.
  EXPECT_FALSE(log.IsSlow(fast));
  QueryCostProfile slow = MakeProfile(0, 1, 50000);  // 50us.
  EXPECT_TRUE(log.IsSlow(slow));
  QueryCostProfile edge = MakeProfile(0, 1, 10000);  // Exactly 10us.
  EXPECT_TRUE(log.IsSlow(edge));
}

TEST(SlowLogTest, BurstIsRateLimitedAndSuppressionCounted) {
  SlowQueryLogOptions options;
  options.threshold_micros = 1.0;
  MetricsRegistry registry;
  options.registry = &registry;
  util::Timer elapsed;  // Started before the bucket, so it bounds refill.
  SlowQueryLog log(options);

  QueryCostProfile slow = MakeProfile(0, 1, 50000);
  ExplainRecord explain = MakeExplain();
  constexpr int kQueries = 100;
  uint64_t admitted = 0;
  for (int i = 0; i < kQueries; ++i) {
    if (log.Admit()) {
      log.Record(slow, explain);
      ++admitted;
    }
  }
  // A 100-query burst emits the bucket's burst, plus at most what the
  // refill rate added while the loop ran...
  const double refill =
      SlowQueryLog::kMaxRecordsPerSec * elapsed.ElapsedSeconds();
  EXPECT_GE(admitted, SlowQueryLog::kBurst);
  EXPECT_LE(static_cast<double>(admitted),
            static_cast<double>(SlowQueryLog::kBurst) + refill);
  EXPECT_EQ(log.Records(), admitted);
  // ...and the rest are counted, not silently dropped.
  EXPECT_EQ(log.Suppressed(), kQueries - admitted);
  EXPECT_EQ(registry.GetCounter("innet_slowlog_records_total").Value(),
            admitted);
  EXPECT_EQ(registry.GetCounter("innet_slowlog_suppressed_total").Value(),
            kQueries - admitted);
}

TEST(SlowLogTest, RingKeepsTheLastRecords) {
  SlowQueryLogOptions options;
  options.threshold_micros = 1.0;
  MetricsRegistry registry;
  options.registry = &registry;
  SlowQueryLog log(options);
  ExplainRecord explain = MakeExplain();
  const size_t kRecords = SlowQueryLog::kKeepLast + 36;
  for (size_t i = 0; i < kRecords; ++i) {
    log.Record(MakeProfile(0, 1, 1000 * (i + 1)), explain);  // i+1 us.
  }
  std::vector<std::string> records = log.RecentRecords();
  ASSERT_EQ(records.size(), SlowQueryLog::kKeepLast);
  // Oldest first: the 37th record through the last.
  EXPECT_NE(records.front().find("\"total_micros\":37,"), std::string::npos)
      << records.front();
  EXPECT_NE(records.back().find("\"total_micros\":100,"), std::string::npos)
      << records.back();
}

TEST(SlowLogTest, RecordCarriesCostProfileAndExplainJson) {
  SlowQueryLogOptions options;
  options.threshold_micros = 1.0;
  MetricsRegistry registry;
  options.registry = &registry;
  SlowQueryLog log(options);

  QueryCostProfile slow = MakeProfile(0, 3, 50000);
  ASSERT_TRUE(log.IsSlow(slow));
  ASSERT_TRUE(log.Admit());
  log.Record(slow, MakeExplain());

  std::vector<std::string> records = log.RecentRecords();
  ASSERT_EQ(records.size(), 1u);
  const std::string& line = records[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"ts_unix\":"), std::string::npos);
  EXPECT_NE(line.find("\"total_micros\":50"), std::string::npos);
  EXPECT_NE(line.find("\"digest\":{\"kind\":\"static\""),
            std::string::npos);
  EXPECT_NE(line.find("\"decile\":3"), std::string::npos);
  EXPECT_NE(line.find("\"cost\":{\"faces\":3"), std::string::npos);
  EXPECT_NE(line.find("\"boundary_edges\":11"), std::string::npos);
  EXPECT_NE(line.find("\"explain\":{"), std::string::npos);
}

TEST(SlowLogTest, AppendsJsonLinesToConfiguredFile) {
  std::string path =
      ::testing::TempDir() + "/slowlog_test_records.jsonl";
  std::remove(path.c_str());
  {
    SlowQueryLogOptions options;
    options.threshold_micros = 1.0;
    options.path = path;
    MetricsRegistry registry;
    options.registry = &registry;
    SlowQueryLog log(options);
    ExplainRecord explain = MakeExplain();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(log.Admit());
      log.Record(MakeProfile(0, 1, 20000 + 1000 * i), explain);
    }
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace innet::obs
