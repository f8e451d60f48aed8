#include "io/serialize.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>

#include "faults/crash_points.h"
#include "graph/connectivity.h"
#include "graph/planarize.h"
#include "graph/weighted_adjacency.h"
#include "io/event_log.h"

namespace innet::io {

namespace {

constexpr uint64_t kGraphMagic = 0x696e6e657447521ULL;  // "innetGR" + v1.
constexpr uint64_t kTrajMagic = 0x696e6e657454521ULL;   // "innetTR" + v1.

// RAII stdio handle.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

// Zero-byte transfers skip stdio: an empty vector's data() may be null,
// which fwrite/fread do not accept even for a zero count.
bool WriteBytes(std::FILE* f, const void* data, size_t bytes) {
  return bytes == 0 || std::fwrite(data, 1, bytes, f) == bytes;
}

bool ReadBytes(std::FILE* f, void* data, size_t bytes) {
  return bytes == 0 || std::fread(data, 1, bytes, f) == bytes;
}

template <typename T>
bool WriteValue(std::FILE* f, T value) {
  return WriteBytes(f, &value, sizeof(T));
}

template <typename T>
bool ReadValue(std::FILE* f, T* value) {
  return ReadBytes(f, value, sizeof(T));
}

// Guards against absurd counts from corrupt headers before allocating.
constexpr uint64_t kMaxReasonableCount = 1ull << 32;

// Bytes between `f`'s read position and the end of the file. A loader
// checks each claimed count against it before allocating, so a corrupt
// count costs a Status, not an allocation the file cannot back.
uint64_t BytesLeft(std::FILE* f) {
  long position = std::ftell(f);
  struct stat st;
  if (position < 0 || ::fstat(::fileno(f), &st) != 0 ||
      st.st_size < position) {
    return 0;
  }
  return static_cast<uint64_t>(st.st_size) - static_cast<uint64_t>(position);
}

}  // namespace

util::Status SaveRoadNetwork(const graph::PlanarGraph& graph,
                             const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return util::InvalidArgumentError("cannot open for writing: " + path);
  }
  std::FILE* f = file.get();
  bool ok = WriteValue(f, kGraphMagic) &&
            WriteValue<uint64_t>(f, graph.NumNodes()) &&
            WriteValue<uint64_t>(f, graph.NumEdges());
  for (graph::NodeId n = 0; ok && n < graph.NumNodes(); ++n) {
    ok = WriteValue(f, graph.Position(n).x) &&
         WriteValue(f, graph.Position(n).y);
  }
  for (graph::EdgeId e = 0; ok && e < graph.NumEdges(); ++e) {
    ok = WriteValue<uint32_t>(f, graph.Edge(e).u) &&
         WriteValue<uint32_t>(f, graph.Edge(e).v);
  }
  if (!ok) return util::InternalError("short write: " + path);
  return util::Status::Ok();
}

util::StatusOr<graph::PlanarGraph> LoadRoadNetwork(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return util::NotFoundError("cannot open: " + path);
  }
  std::FILE* f = file.get();
  uint64_t magic = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  if (!ReadValue(f, &magic) || magic != kGraphMagic) {
    return util::InvalidArgumentError("not a road-network file: " + path);
  }
  if (!ReadValue(f, &num_nodes) || !ReadValue(f, &num_edges) ||
      num_nodes > kMaxReasonableCount || num_edges > kMaxReasonableCount ||
      num_nodes * 2 * sizeof(double) + num_edges * 2 * sizeof(uint32_t) >
          BytesLeft(f)) {
    return util::InvalidArgumentError("corrupt header: " + path);
  }
  std::vector<geometry::Point> positions(num_nodes);
  for (auto& p : positions) {
    if (!ReadValue(f, &p.x) || !ReadValue(f, &p.y)) {
      return util::InvalidArgumentError("truncated positions: " + path);
    }
  }
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges(num_edges);
  std::set<std::pair<graph::NodeId, graph::NodeId>> seen;
  for (auto& [u, v] : edges) {
    uint32_t a = 0;
    uint32_t b = 0;
    if (!ReadValue(f, &a) || !ReadValue(f, &b)) {
      return util::InvalidArgumentError("truncated edges: " + path);
    }
    if (a >= num_nodes || b >= num_nodes || a == b) {
      return util::InvalidArgumentError("invalid edge endpoints: " + path);
    }
    auto key = std::minmax(a, b);
    if (!seen.insert({key.first, key.second}).second) {
      return util::InvalidArgumentError("duplicate edge: " + path);
    }
    u = a;
    v = b;
  }
  // Connectivity must hold before the PlanarGraph constructor asserts it.
  {
    graph::WeightedAdjacency adjacency(num_nodes);
    for (const auto& [u, v] : edges) {
      adjacency[u].push_back({v, 0, 1.0});
      adjacency[v].push_back({u, 0, 1.0});
    }
    if (!graph::IsConnected(adjacency)) {
      return util::InvalidArgumentError("graph is not connected: " + path);
    }
  }
  return graph::PlanarGraph(std::move(positions), std::move(edges));
}

util::Status SaveTrajectories(
    const std::vector<mobility::Trajectory>& trajectories,
    const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return util::InvalidArgumentError("cannot open for writing: " + path);
  }
  std::FILE* f = file.get();
  bool ok = WriteValue(f, kTrajMagic) &&
            WriteValue<uint64_t>(f, trajectories.size());
  for (const mobility::Trajectory& t : trajectories) {
    if (!ok) break;
    if (t.nodes.size() != t.times.size()) {
      return util::InvalidArgumentError(
          "trajectory nodes/times length mismatch");
    }
    ok = WriteValue<uint64_t>(f, t.nodes.size());
    for (size_t i = 0; ok && i < t.nodes.size(); ++i) {
      ok = WriteValue<uint32_t>(f, t.nodes[i]) && WriteValue(f, t.times[i]);
    }
  }
  if (!ok) return util::InternalError("short write: " + path);
  return util::Status::Ok();
}

util::StatusOr<std::vector<mobility::Trajectory>> LoadTrajectories(
    const std::string& path, const graph::PlanarGraph* graph) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return util::NotFoundError("cannot open: " + path);
  }
  std::FILE* f = file.get();
  uint64_t magic = 0;
  uint64_t count = 0;
  if (!ReadValue(f, &magic) || magic != kTrajMagic) {
    return util::InvalidArgumentError("not a trajectory file: " + path);
  }
  // Each trip needs at least its 8-byte length field.
  if (!ReadValue(f, &count) || count > kMaxReasonableCount ||
      count * sizeof(uint64_t) > BytesLeft(f)) {
    return util::InvalidArgumentError("corrupt header: " + path);
  }
  std::vector<mobility::Trajectory> trajectories;
  trajectories.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t length = 0;
    // Each point is a 4-byte node id and an 8-byte time.
    if (!ReadValue(f, &length) || length > kMaxReasonableCount ||
        length * (sizeof(uint32_t) + sizeof(double)) > BytesLeft(f)) {
      return util::InvalidArgumentError("corrupt trajectory header: " + path);
    }
    mobility::Trajectory t;
    t.nodes.resize(length);
    t.times.resize(length);
    for (uint64_t j = 0; j < length; ++j) {
      uint32_t node = 0;
      if (!ReadValue(f, &node) || !ReadValue(f, &t.times[j])) {
        return util::InvalidArgumentError("truncated trajectory: " + path);
      }
      if (graph != nullptr && node >= graph->NumNodes()) {
        return util::InvalidArgumentError("node id out of range: " + path);
      }
      if (j > 0 && t.times[j] <= t.times[j - 1]) {
        return util::InvalidArgumentError("non-increasing timestamps: " +
                                          path);
      }
      t.nodes[j] = node;
    }
    if (graph != nullptr && !t.Valid(*graph)) {
      return util::InvalidArgumentError(
          "trajectory hops between non-adjacent junctions: " + path);
    }
    trajectories.push_back(std::move(t));
  }
  return trajectories;
}

}  // namespace innet::io

namespace innet::io {

namespace {

// Splits a CSV line on commas (no quoting needed for this format).
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

}  // namespace

util::StatusOr<CsvImportResult> ImportRoadNetworkCsv(
    const std::string& path) {
  File file(std::fopen(path.c_str(), "r"));
  if (file == nullptr) return util::NotFoundError("cannot open: " + path);

  std::vector<std::pair<uint64_t, geometry::Point>> raw_nodes;
  std::vector<std::pair<uint64_t, uint64_t>> raw_edges;
  char buffer[512];
  size_t line_number = 0;
  while (std::fgets(buffer, sizeof(buffer), file.get()) != nullptr) {
    ++line_number;
    std::string line(buffer);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = SplitCsv(line);
    auto bad = [&](const char* what) {
      return util::InvalidArgumentError(
          path + ":" + std::to_string(line_number) + ": " + what);
    };
    if (fields[0] == "node") {
      if (fields.size() != 4) return bad("node wants id,x,y");
      char* end = nullptr;
      uint64_t id = std::strtoull(fields[1].c_str(), &end, 10);
      if (*end != '\0') return bad("bad node id");
      double x = std::strtod(fields[2].c_str(), &end);
      if (*end != '\0') return bad("bad x");
      double y = std::strtod(fields[3].c_str(), &end);
      if (*end != '\0') return bad("bad y");
      raw_nodes.emplace_back(id, geometry::Point(x, y));
    } else if (fields[0] == "edge") {
      if (fields.size() != 3) return bad("edge wants two node ids");
      char* end = nullptr;
      uint64_t u = std::strtoull(fields[1].c_str(), &end, 10);
      if (*end != '\0') return bad("bad edge endpoint");
      uint64_t v = std::strtoull(fields[2].c_str(), &end, 10);
      if (*end != '\0') return bad("bad edge endpoint");
      raw_edges.emplace_back(u, v);
    } else {
      return bad("unknown record type");
    }
  }

  // Dense id check + position table.
  std::vector<geometry::Point> positions(raw_nodes.size());
  std::vector<bool> seen(raw_nodes.size(), false);
  for (const auto& [id, point] : raw_nodes) {
    if (id >= raw_nodes.size() || seen[id]) {
      return util::InvalidArgumentError(
          "node ids must be dense 0..n-1 without repeats: " + path);
    }
    seen[id] = true;
    positions[id] = point;
  }
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  edges.reserve(raw_edges.size());
  for (const auto& [u, v] : raw_edges) {
    if (u >= positions.size() || v >= positions.size()) {
      return util::InvalidArgumentError("edge endpoint out of range: " + path);
    }
    edges.emplace_back(static_cast<graph::NodeId>(u),
                       static_cast<graph::NodeId>(v));
  }

  util::StatusOr<graph::PlanarizeResult> planarized =
      graph::Planarize(std::move(positions), std::move(edges));
  if (!planarized.ok()) return planarized.status();
  return CsvImportResult{std::move(planarized->graph),
                         planarized->inserted_nodes};
}

util::Status ExportRoadNetworkCsv(const graph::PlanarGraph& graph,
                                  const std::string& path) {
  File file(std::fopen(path.c_str(), "w"));
  if (file == nullptr) {
    return util::InvalidArgumentError("cannot open for writing: " + path);
  }
  std::FILE* f = file.get();
  std::fprintf(f, "# innet road network: %zu nodes, %zu edges\n",
               graph.NumNodes(), graph.NumEdges());
  for (graph::NodeId n = 0; n < graph.NumNodes(); ++n) {
    std::fprintf(f, "node,%u,%.9g,%.9g\n", n, graph.Position(n).x,
                 graph.Position(n).y);
  }
  for (graph::EdgeId e = 0; e < graph.NumEdges(); ++e) {
    std::fprintf(f, "edge,%u,%u\n", graph.Edge(e).u, graph.Edge(e).v);
  }
  return util::Status::Ok();
}

}  // namespace innet::io

namespace innet::io {

namespace {

constexpr uint64_t kSnapshotMagic = 0x696e6e6574465a1ULL;  // "innetFZ" + v1.

// fsyncs the directory holding `path` so the rename that published a
// snapshot is itself durable.
util::Status FsyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return util::InternalError("cannot open directory: " + dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return util::InternalError("fsync failed: " + dir);
  return util::Status::Ok();
}

// Writes one snapshot file around its CSR arrays: the header, one CRC over
// everything after the magic, fsync, and the atomic rename.
// `put_arrays(put)` writes the row pointers, then the timestamps, through
// `put(data, bytes)`, which returns false on a short write.
template <typename PutArrays>
util::Status WriteSnapshotFile(const FrozenSnapshotMeta& meta,
                               const std::string& path, uint64_t num_slots,
                               uint64_t total_events, PutArrays put_arrays) {
  std::string tmp = path + ".tmp";
  File file(std::fopen(tmp.c_str(), "wb"));
  if (file == nullptr) {
    return util::InvalidArgumentError("cannot open for writing: " + tmp);
  }
  std::FILE* f = file.get();

  // Everything after the magic is covered by one streaming CRC so a torn
  // write anywhere in the body is caught on load.
  uint32_t crc = kCrc32cInit;
  auto put = [&](const void* data, size_t bytes) {
    crc = Crc32cExtend(crc, data, bytes);
    return WriteBytes(f, data, bytes);
  };
  auto put_u64 = [&](uint64_t v) { return put(&v, sizeof(v)); };

  bool ok = WriteValue(f, kSnapshotMagic) && put_u64(meta.generation) &&
            put_u64(meta.covered_epoch) && put_u64(meta.covered_events) &&
            put_u64(num_slots) && put_u64(total_events);
  if (!ok) return util::InternalError("short write: " + tmp);
  INNET_CRASH_POINT("snapshot:post-header");
  ok = put_arrays(put) && WriteValue(f, Crc32cFinish(crc));
  if (!ok || std::fflush(f) != 0) {
    return util::InternalError("short write: " + tmp);
  }
  if (::fsync(::fileno(f)) != 0) {
    return util::InternalError("fsync failed: " + tmp);
  }
  file.reset();  // Close before rename.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return util::InternalError("rename failed: " + tmp + " -> " + path);
  }
  return FsyncParentDir(path);
}

}  // namespace

util::Status SaveFrozenSnapshot(const forms::FrozenTrackingForm& store,
                                const FrozenSnapshotMeta& meta,
                                const std::string& path) {
  const std::vector<double>& times = store.RawTimes();
  const std::vector<uint64_t>& offsets = store.RawOffsets();
  return WriteSnapshotFile(
      meta, path, offsets.size() - 1, times.size(), [&](auto& put) {
        return put(offsets.data(), offsets.size() * sizeof(uint64_t)) &&
               put(times.data(), times.size() * sizeof(double));
      });
}

util::Status SaveFrozenSnapshot(const forms::FrozenRuns& store,
                                const FrozenSnapshotMeta& meta,
                                const std::string& path) {
  // The row pointers of the union are the sums of the runs'; the
  // timestamps are written slot by slot, each slot's runs merged in a
  // scratch buffer the size of one slot.
  size_t num_slots = 2 * store.num_edges();
  std::vector<uint64_t> offsets(num_slots + 1, 0);
  for (const forms::FrozenRuns::Run& run : store.runs()) {
    const std::vector<uint64_t>& run_offsets = run->RawOffsets();
    for (size_t s = 0; s <= num_slots; ++s) offsets[s] += run_offsets[s];
  }
  return WriteSnapshotFile(
      meta, path, num_slots, store.TotalEvents(), [&](auto& put) {
        if (!put(offsets.data(), offsets.size() * sizeof(uint64_t))) {
          return false;
        }
        std::vector<double> slot_times;
        for (size_t s = 0; s < num_slots; ++s) {
          slot_times.clear();
          store.AppendSlot(s, &slot_times);
          if (!put(slot_times.data(), slot_times.size() * sizeof(double))) {
            return false;
          }
        }
        return true;
      });
}

util::StatusOr<LoadedFrozenSnapshot> LoadFrozenSnapshot(
    const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return util::NotFoundError("cannot open: " + path);
  }
  std::FILE* f = file.get();

  uint32_t crc = kCrc32cInit;
  auto get = [&](void* data, size_t bytes) {
    if (!ReadBytes(f, data, bytes)) return false;
    crc = Crc32cExtend(crc, data, bytes);
    return true;
  };
  auto get_u64 = [&](uint64_t* v) { return get(v, sizeof(*v)); };

  uint64_t magic = 0;
  if (!ReadValue(f, &magic) || magic != kSnapshotMagic) {
    return util::InvalidArgumentError("not a frozen snapshot: " + path);
  }
  FrozenSnapshotMeta meta;
  uint64_t num_slots = 0;
  uint64_t total_events = 0;
  if (!get_u64(&meta.generation) || !get_u64(&meta.covered_epoch) ||
      !get_u64(&meta.covered_events) || !get_u64(&num_slots) ||
      !get_u64(&total_events) || num_slots > kMaxReasonableCount ||
      total_events > kMaxReasonableCount || num_slots % 2 != 0 ||
      (num_slots + 1 + total_events) * sizeof(uint64_t) + sizeof(uint32_t) >
          BytesLeft(f)) {
    return util::InvalidArgumentError("corrupt snapshot header: " + path);
  }
  std::vector<uint64_t> offsets(num_slots + 1);
  std::vector<double> times(total_events);
  uint32_t stored_crc = 0;
  if (!get(offsets.data(), offsets.size() * sizeof(uint64_t)) ||
      !get(times.data(), times.size() * sizeof(double)) ||
      !ReadValue(f, &stored_crc)) {
    return util::InvalidArgumentError("truncated snapshot: " + path);
  }
  if (Crc32cFinish(crc) != stored_crc) {
    return util::InvalidArgumentError("snapshot checksum mismatch: " + path);
  }
  // Re-validate every invariant the FrozenTrackingForm constructor CHECKs,
  // as Statuses: a corrupt file must never abort the process.
  if (offsets.front() != 0 || offsets.back() != total_events) {
    return util::InvalidArgumentError("corrupt snapshot offsets: " + path);
  }
  for (uint64_t s = 0; s < num_slots; ++s) {
    if (offsets[s] > offsets[s + 1]) {
      return util::InvalidArgumentError("non-monotone snapshot offsets: " +
                                        path);
    }
    if (!std::is_sorted(times.begin() + offsets[s],
                        times.begin() + offsets[s + 1])) {
      return util::InvalidArgumentError("unsorted snapshot slot: " + path);
    }
  }
  return LoadedFrozenSnapshot{
      forms::FrozenTrackingForm(std::move(times), std::move(offsets)), meta};
}

}  // namespace innet::io
