#include "io/event_log.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "faults/crash_points.h"
#include "util/logging.h"
#include "util/simd.h"

namespace innet::io {

namespace {

// ---- Record framing -------------------------------------------------------
//
//   [u32 crc32c(payload)] [u32 payload_len] [payload]
//
// payload[0] is the record type; the body is little-endian host layout like
// every other artifact in io/. A reader that fails to parse a frame (short
// read, absurd length, CRC mismatch) treats everything from that byte on as
// a torn tail.

constexpr uint8_t kRecordSegmentHeader = 1;
constexpr uint8_t kRecordEvent = 2;
constexpr uint8_t kRecordCommit = 3;

constexpr uint64_t kSegmentMagic = 0x696e6e657457411ULL;  // "innetWA" + v1.

// Records are tiny (event payloads: 17 bytes, 25 with the frame; commit
// payloads: 33); anything near this cap is a corrupt length field,
// rejected before allocation.
constexpr uint32_t kMaxRecordBytes = 1u << 16;

constexpr size_t kFrameBytes = 2 * sizeof(uint32_t);

struct SegmentHeaderBody {
  uint64_t magic;
  uint64_t seq;
  uint64_t first_event_index;  // Event records in all prior segments.
};

struct EventBody {
  uint32_t edge;
  uint8_t forward;
  double time;
};

struct CommitBody {
  uint64_t epoch;
  uint64_t events_in_epoch;
  uint64_t total_events_after;
  uint64_t generation;
};

template <typename T>
size_t PackPayload(uint8_t type, const T& body, uint8_t* out) {
  out[0] = type;
  std::memcpy(out + 1, &body, sizeof(T));
  return 1 + sizeof(T);
}

// An event record is one frame around a 17-byte payload: the type byte,
// then EventBody's layout with its 3 padding bytes written as zeros.
constexpr size_t kEventPayloadBytes = 1 + sizeof(EventBody);
constexpr size_t kEventRecordBytes = kFrameBytes + kEventPayloadBytes;
static_assert(offsetof(EventBody, edge) == 0 &&
                  offsetof(EventBody, forward) == 4 &&
                  offsetof(EventBody, time) == 8 && sizeof(EventBody) == 16,
              "FrameEvent packs EventBody's layout by hand");
static_assert(std::endian::native == std::endian::little,
              "FrameEvent builds the little-endian host layout in words");

// Writes one event record, [crc][len=17][type, edge, forward, 3 zero
// padding bytes, time], at `out`. The payload is built in registers as two
// little-endian words and a byte, checksummed as such and only then
// stored: reading just-stored bytes back for the CRC would stall on store
// forwarding. Byte for byte what framing a packed EventBody gives.
void FrameEvent(const mobility::CrossingEvent& event, uint8_t* out) {
  uint64_t time_bits;
  std::memcpy(&time_bits, &event.time, sizeof(time_bits));
  // Payload bytes 0-7: type, edge (4), forward, the first two padding
  // bytes; bytes 8-15: the last padding byte, then the time's low seven
  // bytes; byte 16: the time's top byte.
  const uint64_t lo = uint64_t{kRecordEvent} |
                      uint64_t{static_cast<uint32_t>(event.edge)} << 8 |
                      uint64_t{event.forward ? 1u : 0u} << 40;
  const uint64_t hi = time_bits << 8;
  const uint8_t tail = static_cast<uint8_t>(time_bits >> 56);
  const uint64_t head =
      uint64_t{Crc32cFinish(
          util::simd::Crc32cExtendWords(kCrc32cInit, lo, hi, tail))} |
      uint64_t{kEventPayloadBytes} << 32;
  std::memcpy(out, &head, sizeof(head));
  std::memcpy(out + 8, &lo, sizeof(lo));
  std::memcpy(out + 16, &hi, sizeof(hi));
  out[24] = tail;
}

// Appends one frame, [crc32c(payload)] [len] [payload], to `out`.
void AppendFrame(const uint8_t* payload, size_t bytes,
                 std::vector<uint8_t>* out) {
  uint32_t crc = Crc32c(payload, bytes);
  uint32_t len = static_cast<uint32_t>(bytes);
  size_t at = out->size();
  out->resize(at + kFrameBytes + bytes);
  uint8_t* frame = out->data() + at;
  std::memcpy(frame, &crc, sizeof(crc));
  std::memcpy(frame + sizeof(crc), &len, sizeof(len));
  std::memcpy(frame + kFrameBytes, payload, bytes);
}

template <typename T>
bool UnpackPayload(const uint8_t* payload, size_t len, T* body) {
  if (len != 1 + sizeof(T)) return false;
  std::memcpy(body, payload + 1, sizeof(T));
  return true;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.seg",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

// RAII stdio handle (same idiom as serialize.cc).
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

util::Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return util::InternalError("cannot open dir for fsync: " + dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return util::InternalError("fsync failed on dir: " + dir);
  return util::Status::Ok();
}

// Segment files under `dir`, sorted by sequence number.
struct SegmentFile {
  uint64_t seq = 0;
  std::string path;
};

util::StatusOr<std::vector<SegmentFile>> ListSegments(
    const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return util::NotFoundError("cannot open log dir: " + dir);
  std::vector<SegmentFile> segments;
  while (struct dirent* entry = ::readdir(d)) {
    unsigned long long seq = 0;
    int consumed = 0;
    if (std::sscanf(entry->d_name, "wal-%8llu.seg%n", &seq, &consumed) == 1 &&
        entry->d_name[consumed] == '\0') {
      segments.push_back({seq, dir + "/" + entry->d_name});
    }
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq < b.seq;
            });
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].seq != i + 1) {
      return util::InvalidArgumentError(
          "missing or out-of-order WAL segment under " + dir + " (want seq " +
          std::to_string(i + 1) + ", found " +
          std::to_string(segments[i].seq) + ")");
    }
  }
  return segments;
}

// Outcome of scanning one frame.
enum class FrameResult { kOk, kEndOfFile, kTorn };

// Reads one frame at the current position. On kTorn the stream position is
// unspecified; callers stop consuming the segment.
FrameResult ReadFrame(std::FILE* f, std::vector<uint8_t>* payload) {
  uint32_t crc = 0;
  uint32_t len = 0;
  size_t got = std::fread(&crc, 1, sizeof(crc), f);
  if (got == 0) return FrameResult::kEndOfFile;
  if (got != sizeof(crc) ||
      std::fread(&len, 1, sizeof(len), f) != sizeof(len)) {
    return FrameResult::kTorn;
  }
  if (len == 0 || len > kMaxRecordBytes) return FrameResult::kTorn;
  payload->resize(len);
  if (std::fread(payload->data(), 1, len, f) != len) {
    return FrameResult::kTorn;
  }
  if (Crc32c(payload->data(), len) != crc) return FrameResult::kTorn;
  return FrameResult::kOk;
}

// Full scan state shared by the tolerant reader and the writer's resume
// path: the durable prefix plus where it physically ends.
struct LogScan {
  ReplayedEventLog replay;
  bool any_commit = false;
  uint64_t last_commit_seq = 0;     // Segment holding the last commit.
  uint64_t last_commit_end = 0;     // Byte offset just past that commit.
  uint64_t total_event_records = 0; // Including uncommitted ones.
  std::vector<SegmentFile> segments;
};

util::StatusOr<LogScan> ScanLog(const std::string& dir,
                                uint64_t skip_events) {
  util::StatusOr<std::vector<SegmentFile>> segments = ListSegments(dir);
  if (!segments.ok()) return segments.status();

  LogScan scan;
  scan.segments = *segments;
  std::vector<mobility::CrossingEvent> pending;  // Current (open) epoch.
  uint64_t skipped = 0;
  std::vector<uint8_t> payload;

  for (size_t i = 0; i < scan.segments.size(); ++i) {
    const SegmentFile& seg = scan.segments[i];
    bool last_segment = i + 1 == scan.segments.size();
    File file(std::fopen(seg.path.c_str(), "rb"));
    if (file == nullptr) {
      return util::NotFoundError("cannot open segment: " + seg.path);
    }
    std::FILE* f = file.get();

    bool saw_header = false;
    for (;;) {
      long before = std::ftell(f);
      FrameResult frame = ReadFrame(f, &payload);
      if (frame == FrameResult::kEndOfFile) break;
      if (frame == FrameResult::kTorn) {
        std::fseek(f, 0, SEEK_END);
        uint64_t torn = static_cast<uint64_t>(std::ftell(f) - before);
        if (!last_segment) {
          return util::InvalidArgumentError(
              "corrupt record mid-log in " + seg.path + " at offset " +
              std::to_string(before) +
              " (only the final segment may have a torn tail)");
        }
        scan.replay.torn_bytes = torn;
        INNET_LOG(WARN) << "WAL torn tail: discarding " << torn
                        << " unparseable bytes of " << seg.path
                        << " at offset " << before
                        << " (recovered through epoch "
                        << scan.replay.durable_epoch << ")";
        break;
      }
      uint8_t type = payload[0];
      if (!saw_header) {
        SegmentHeaderBody header;
        if (type != kRecordSegmentHeader ||
            !UnpackPayload(payload.data(), payload.size(), &header) ||
            header.magic != kSegmentMagic || header.seq != seg.seq ||
            header.first_event_index != scan.total_event_records) {
          return util::InvalidArgumentError("bad segment header: " +
                                            seg.path);
        }
        saw_header = true;
        continue;
      }
      if (type == kRecordEvent) {
        EventBody body;
        if (!UnpackPayload(payload.data(), payload.size(), &body)) {
          return util::InvalidArgumentError("malformed event record in " +
                                            seg.path);
        }
        pending.push_back({static_cast<graph::EdgeId>(body.edge),
                           body.forward != 0, body.time});
        ++scan.total_event_records;
      } else if (type == kRecordCommit) {
        CommitBody body;
        if (!UnpackPayload(payload.data(), payload.size(), &body)) {
          return util::InvalidArgumentError("malformed commit record in " +
                                            seg.path);
        }
        if (body.events_in_epoch != pending.size() ||
            body.total_events_after != scan.total_event_records ||
            body.epoch <= scan.replay.durable_epoch) {
          return util::InvalidArgumentError(
              "inconsistent commit record in " + seg.path + " (epoch " +
              std::to_string(body.epoch) + ")");
        }
        for (const mobility::CrossingEvent& e : pending) {
          if (skipped < skip_events) {
            ++skipped;
          } else {
            scan.replay.events.push_back(e);
          }
        }
        pending.clear();
        scan.replay.commits.push_back(
            {body.epoch, body.events_in_epoch, body.generation});
        scan.replay.durable_events = body.total_events_after;
        scan.replay.durable_epoch = body.epoch;
        scan.replay.generation = body.generation;
        scan.any_commit = true;
        scan.last_commit_seq = seg.seq;
        scan.last_commit_end = static_cast<uint64_t>(std::ftell(f));
      } else {
        return util::InvalidArgumentError(
            "unknown record type " + std::to_string(type) + " in " +
            seg.path);
      }
    }
  }

  scan.replay.discarded_events = pending.size();
  if (!pending.empty()) {
    INNET_LOG(WARN) << "WAL: discarding " << pending.size()
                    << " uncommitted event records past epoch "
                    << scan.replay.durable_epoch
                    << " (their epoch never committed)";
  }
  if (skip_events > scan.replay.durable_events) {
    return util::InvalidArgumentError(
        "snapshot covers " + std::to_string(skip_events) +
        " events but the WAL only holds " +
        std::to_string(scan.replay.durable_events) + " durable ones");
  }
  return scan;
}

}  // namespace

// CRC-32C, reflected polynomial 0x82f63b78: the Castagnoli polynomial
// detects every torn-tail burst this framing cares about. The update runs
// through util::simd's dispatch — SSE4.2 `crc32` eight bytes per step where
// cpuid reports it, the 256-entry table at INNET_SIMD=scalar and on every
// other host — and both compute the same value, so no byte on disk depends
// on the host (tests/event_log_test.cc pins the levels against each other).
uint32_t Crc32cExtend(uint32_t state, const void* data, size_t bytes) {
  return util::simd::Crc32cExtend(state, data, bytes);
}

uint32_t Crc32c(const void* data, size_t bytes) {
  return Crc32cFinish(Crc32cExtend(kCrc32cInit, data, bytes));
}

util::StatusOr<ReplayedEventLog> ReplayEventLog(const std::string& dir,
                                                uint64_t skip_events) {
  util::StatusOr<LogScan> scan = ScanLog(dir, skip_events);
  if (!scan.ok()) return scan.status();
  return std::move(scan->replay);
}

EventLogWriter::EventLogWriter(std::string dir, EventLogOptions options)
    : dir_(std::move(dir)), options_(options) {
  obs::MetricsRegistry& registry =
      options_.registry ? *options_.registry : obs::MetricsRegistry::Global();
  bytes_counter_ = &registry.GetCounter(
      "innet_wal_bytes_total", "Bytes appended to write-ahead log segments");
  commits_counter_ = &registry.GetCounter(
      "innet_wal_epochs_committed", "Epoch commit records fsync'd to the WAL");
  fsync_micros_ = &registry.GetHistogram(
      "innet_wal_fsync_micros", obs::Histogram::DurationBoundsMicros(),
      "Wall time of one epoch-commit flush+fsync");
}

EventLogWriter::~EventLogWriter() {
  if (segment_ != nullptr) std::fclose(segment_);
}

util::StatusOr<std::unique_ptr<EventLogWriter>> EventLogWriter::Open(
    const std::string& dir, EventLogOptions options) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return util::InvalidArgumentError("cannot create WAL dir: " + dir);
  }
  util::StatusOr<LogScan> scan = ScanLog(dir, 0);
  if (!scan.ok()) return scan.status();

  std::unique_ptr<EventLogWriter> writer(
      new EventLogWriter(dir, options));

  if (!scan->any_commit) {
    // Nothing durable: whatever segments exist hold only a lost in-flight
    // epoch. Start over from segment 1.
    for (const SegmentFile& seg : scan->segments) {
      std::remove(seg.path.c_str());
    }
    util::Status status = writer->OpenSegment(1, 0);
    if (!status.ok()) return status;
    return writer;
  }

  // Durable prefix ends inside segment last_commit_seq at last_commit_end:
  // drop later segments wholesale, truncate the tail of that one, and
  // resume appending to it. New epochs can then never inherit a dead
  // epoch's events.
  for (const SegmentFile& seg : scan->segments) {
    if (seg.seq > scan->last_commit_seq) std::remove(seg.path.c_str());
  }
  std::string resume_path = SegmentPath(dir, scan->last_commit_seq);
  if (::truncate(resume_path.c_str(),
                 static_cast<off_t>(scan->last_commit_end)) != 0) {
    return util::InternalError("cannot truncate torn WAL tail: " +
                               resume_path);
  }
  writer->segment_ = std::fopen(resume_path.c_str(), "ab");
  if (writer->segment_ == nullptr) {
    return util::InternalError("cannot reopen WAL segment: " + resume_path);
  }
  writer->segment_seq_ = scan->last_commit_seq;
  writer->segment_bytes_ = scan->last_commit_end;
  writer->durable_events_ = scan->replay.durable_events;
  writer->durable_epoch_ = scan->replay.durable_epoch;
  if (scan->replay.discarded_events > 0 || scan->replay.torn_bytes > 0) {
    INNET_LOG(WARN) << "WAL resume: truncated "
                    << scan->replay.discarded_events
                    << " uncommitted events and "
                    << scan->replay.torn_bytes << " torn bytes from " << dir;
  }
  return writer;
}

util::Status EventLogWriter::OpenSegment(uint64_t seq,
                                         uint64_t start_offset) {
  std::string path = SegmentPath(dir_, seq);
  segment_ = std::fopen(path.c_str(), "wb");
  if (segment_ == nullptr) {
    return util::InternalError("cannot create WAL segment: " + path);
  }
  segment_seq_ = seq;
  segment_bytes_ = 0;
  SegmentHeaderBody header{kSegmentMagic, seq, start_offset};
  uint8_t payload[1 + sizeof(header)];
  size_t len = PackPayload(kRecordSegmentHeader, header, payload);
  AppendFrame(payload, len, &frames_);
  util::Status status = WriteFrames();
  if (!status.ok()) return status;
  // Make the new directory entry durable so recovery after a crash sees
  // the segment chain it is about to be part of.
  return FsyncDir(dir_);
}

util::Status EventLogWriter::WriteFrames() {
  size_t total = frames_.size();
  bool ok = total == 0 ||
            std::fwrite(frames_.data(), 1, total, segment_) == total;
  frames_.clear();
  if (!ok) {
    return util::InternalError("short write on WAL segment " +
                               SegmentPath(dir_, segment_seq_));
  }
  segment_bytes_ += total;
  bytes_written_ += total;
  bytes_counter_->Increment(total);
  return util::Status::Ok();
}

util::Status EventLogWriter::Append(
    std::span<const mobility::CrossingEvent> events) {
  INNET_DCHECK(segment_ != nullptr);
  size_t at = frames_.size();
  frames_.resize(at + events.size() * kEventRecordBytes);
  uint8_t* out = frames_.data() + at;
  for (const mobility::CrossingEvent& event : events) {
    FrameEvent(event, out);
    out += kEventRecordBytes;
  }
  util::Status status = WriteFrames();
  if (!status.ok()) return status;
  pending_events_ += events.size();
  INNET_CRASH_POINT("wal:mid-segment");
  return util::Status::Ok();
}

util::Status EventLogWriter::CommitEpoch(uint64_t epoch,
                                         uint64_t generation) {
  INNET_DCHECK(segment_ != nullptr);
  INNET_CHECK(epoch > durable_epoch_);
  auto start = std::chrono::steady_clock::now();
  CommitBody body{epoch, pending_events_, durable_events_ + pending_events_,
                  generation};
  uint8_t payload[1 + sizeof(body)];
  size_t len = PackPayload(kRecordCommit, body, payload);
  AppendFrame(payload, len, &frames_);
  util::Status status = WriteFrames();
  if (!status.ok()) return status;
  if (std::fflush(segment_) != 0) {
    return util::InternalError("fflush failed on WAL segment");
  }
  INNET_CRASH_POINT("wal:pre-fsync");
  if (options_.fsync_on_commit &&
      ::fsync(::fileno(segment_)) != 0) {
    return util::InternalError("fsync failed on WAL segment");
  }
  durable_events_ += pending_events_;
  pending_events_ = 0;
  durable_epoch_ = epoch;
  commits_counter_->Increment();
  fsync_micros_->Observe(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return RotateIfNeeded();
}

util::Status EventLogWriter::RotateIfNeeded() {
  // Rotation happens only on epoch boundaries, so every sealed segment ends
  // with a commit record and the resume truncation point is always inside
  // the newest segment.
  if (segment_bytes_ < options_.segment_bytes) return util::Status::Ok();
  std::fclose(segment_);
  segment_ = nullptr;
  return OpenSegment(segment_seq_ + 1, durable_events_);
}

}  // namespace innet::io
