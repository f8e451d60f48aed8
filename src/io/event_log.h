// Segmented, checksummed write-ahead log for crossing events
// (docs/FAULTS.md §"Process & storage faults").
//
// The live ingest path (runtime::IngestPipeline) buffers events in memory
// and publishes a new frozen store per epoch; without a log a process
// crash loses the entire stream. The WAL makes epochs durable with
// group-commit semantics:
//
//   Append(events)       frames a batch of event records in place in one
//                        buffer and hands it to the segment's stdio
//                        buffer in one write — no syscall per event
//   CommitEpoch(...)     appends an epoch-commit record, flushes, fsyncs
//
// An event is DURABLE iff the commit record of its epoch survived. The
// reader enforces exactly that: records after the last valid commit (a
// torn epoch, a half-written record, a flipped bit caught by the CRC) are
// discarded with a WARN — never a crash, never silently attributed to a
// later epoch. Reopening a log for writing truncates that same tail so new
// epochs can never be contaminated by a predecessor's in-flight events.
//
// On-disk layout: numbered segment files `wal-%08llu.seg`, each starting
// with a header record, rotated once a segment exceeds
// EventLogOptions::segment_bytes. Every record is CRC-framed
// ([crc32][len][payload]); the format constants live in event_log.cc.
// The compact self-indexed trip structures of Brisaboa et al. motivate
// keeping the REPLAY representation separate: the log stores raw events,
// snapshots (io/serialize.h, SaveFrozenSnapshot) store the compacted CSR
// form, and recovery is snapshot-load + short tail replay instead of
// full-stream replay.
#ifndef INNET_IO_EVENT_LOG_H_
#define INNET_IO_EVENT_LOG_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mobility/trajectory.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace innet::io {

/// CRC-32C (Castagnoli) over `bytes`, through util::simd's dispatch
/// (SSE4.2 `crc32` or the 256-entry table; identical values). Exposed for
/// the snapshot writer and for tests that hand-corrupt files.
uint32_t Crc32c(const void* data, size_t bytes);

/// Streaming form for multi-chunk payloads (the snapshot writer seals
/// header + arrays without buffering them twice):
///   uint32_t s = kCrc32cInit;
///   s = Crc32cExtend(s, a, na); s = Crc32cExtend(s, b, nb);
///   uint32_t crc = Crc32cFinish(s);
inline constexpr uint32_t kCrc32cInit = 0xffffffffu;
uint32_t Crc32cExtend(uint32_t state, const void* data, size_t bytes);
inline uint32_t Crc32cFinish(uint32_t state) { return state ^ 0xffffffffu; }

struct EventLogOptions {
  /// Rotate to a new segment once the current one exceeds this many bytes.
  size_t segment_bytes = 8u << 20;
  /// fsync on every CommitEpoch. Turning this off trades the durability
  /// guarantee for throughput (data survives process death but not OS
  /// death); the torn-tail tolerance is unaffected.
  bool fsync_on_commit = true;
  /// Metrics sink; nullptr = the process-global registry. Exposes
  /// innet_wal_bytes_total, innet_wal_fsync_micros,
  /// innet_wal_epochs_committed.
  obs::MetricsRegistry* registry = nullptr;
};

/// One epoch-commit marker as seen by the reader, in log order.
struct EventLogCommit {
  uint64_t epoch = 0;        ///< Writer-assigned epoch id (monotone).
  uint64_t events = 0;       ///< Event records in this epoch.
  uint64_t generation = 0;   ///< Store generation the epoch published.
};

/// Result of a tolerant replay: everything durable, nothing torn.
struct ReplayedEventLog {
  /// Committed events in log order, AFTER skipping `skip_events` (the
  /// snapshot-covered prefix). Log order is per-epoch shard-major — NOT
  /// globally time-sorted; consumers scatter-sort per slot exactly like
  /// the ingest freezer.
  std::vector<mobility::CrossingEvent> events;
  std::vector<EventLogCommit> commits;  ///< All valid commits, in order.
  uint64_t durable_events = 0;    ///< Committed event records in the log.
  uint64_t durable_epoch = 0;     ///< Last committed epoch id (0 = none).
  uint64_t generation = 0;        ///< Generation of the last commit.
  uint64_t discarded_events = 0;  ///< Whole records past the last commit.
  uint64_t torn_bytes = 0;        ///< Unparseable tail bytes discarded.
};

/// Reads every segment of the log under `dir`, validating CRCs. A torn or
/// corrupt tail (half-written record, flipped bits) in the LAST segment
/// stops the scan at the last whole record with a WARN; the same damage in
/// an earlier segment is real corruption and fails with InvalidArgument.
/// `skip_events` committed event records are decoded but not materialized
/// (snapshot catch-up). Fails if skip_events exceeds the durable count.
util::StatusOr<ReplayedEventLog> ReplayEventLog(const std::string& dir,
                                                uint64_t skip_events = 0);

/// Append-side of the log. NOT thread-safe: the ingest freezer thread is
/// the only writer (Push() buffers in memory; the WAL sees events only at
/// epoch close).
class EventLogWriter {
 public:
  /// Opens `dir` (created if missing) for appending. An existing log is
  /// scanned first: the torn/uncommitted tail is truncated away and the
  /// writer resumes after the last commit, so recovery + resume round-trips
  /// (tests/recovery_test.cc). Fails only on I/O errors or mid-log
  /// corruption, same contract as ReplayEventLog.
  static util::StatusOr<std::unique_ptr<EventLogWriter>> Open(
      const std::string& dir, EventLogOptions options = {});

  ~EventLogWriter();
  EventLogWriter(const EventLogWriter&) = delete;
  EventLogWriter& operator=(const EventLogWriter&) = delete;

  /// Frames one record per event, in order, into one buffer and writes it
  /// to the current segment in one call. Crash point "wal:mid-segment"
  /// fires after the batch is written (before any commit record).
  util::Status Append(std::span<const mobility::CrossingEvent> events);

  /// Seals the epoch: commit record + flush + (optionally) fsync, rotating
  /// segments afterwards when the size threshold is crossed. `generation`
  /// is the store generation this epoch publishes (recovery restores it).
  /// Crash point "wal:pre-fsync" fires between flush and fsync.
  util::Status CommitEpoch(uint64_t epoch, uint64_t generation);

  /// Events covered by committed epochs (durable once fsync returned).
  uint64_t DurableEvents() const { return durable_events_; }
  /// Events appended since the last commit (volatile until committed).
  uint64_t PendingEvents() const { return pending_events_; }
  /// Last committed epoch id (0 = none).
  uint64_t DurableEpoch() const { return durable_epoch_; }
  /// Bytes appended to segments by this writer instance.
  uint64_t BytesWritten() const { return bytes_written_; }

 private:
  EventLogWriter(std::string dir, EventLogOptions options);

  util::Status OpenSegment(uint64_t seq, uint64_t start_offset);
  util::Status RotateIfNeeded();
  /// Writes the records framed in frames_ to the segment and clears it.
  util::Status WriteFrames();

  std::string dir_;
  EventLogOptions options_;
  std::FILE* segment_ = nullptr;
  uint64_t segment_seq_ = 0;
  uint64_t segment_bytes_ = 0;
  uint64_t durable_events_ = 0;
  uint64_t pending_events_ = 0;
  uint64_t durable_epoch_ = 0;
  uint64_t bytes_written_ = 0;
  std::vector<uint8_t> frames_;  // Framed records awaiting WriteFrames().

  obs::Counter* bytes_counter_;
  obs::Counter* commits_counter_;
  obs::Histogram* fsync_micros_;
};

}  // namespace innet::io

#endif  // INNET_IO_EVENT_LOG_H_
