// Binary persistence for the dataset artifacts: road networks and
// trajectory sets. Errors are reported through util::Status (no exceptions,
// no aborts on corrupt files).
//
// Format: little-endian host layout with a magic tag and version per file
// type; loaders validate counts, id ranges, duplicate edges, monotone
// timestamps, and connectivity before handing data to constructors that
// enforce invariants with CHECKs.
#ifndef INNET_IO_SERIALIZE_H_
#define INNET_IO_SERIALIZE_H_

#include <string>
#include <vector>

#include "forms/frozen_runs.h"
#include "forms/frozen_tracking_form.h"
#include "graph/planar_graph.h"
#include "mobility/trajectory.h"
#include "util/status.h"

namespace innet::io {

/// Writes the mobility graph (positions + edges) to `path`.
util::Status SaveRoadNetwork(const graph::PlanarGraph& graph,
                             const std::string& path);

/// Reads a mobility graph. Fails with InvalidArgument on malformed content
/// (bad magic, truncation, non-finite coordinates, out-of-range ids,
/// duplicate or self-loop edges, a disconnected graph), and on crossing
/// roads that fail graph::PlanarGraph::Create's outer-face or Euler checks.
util::StatusOr<graph::PlanarGraph> LoadRoadNetwork(const std::string& path);

/// Writes a trajectory set to `path`.
util::Status SaveTrajectories(
    const std::vector<mobility::Trajectory>& trajectories,
    const std::string& path);

/// Reads a trajectory set, validating monotone timestamps and (when
/// `graph` is non-null) adjacency of consecutive nodes.
util::StatusOr<std::vector<mobility::Trajectory>> LoadTrajectories(
    const std::string& path, const graph::PlanarGraph* graph = nullptr);

/// Text import for external road data (e.g., OSM extracts). Format, one
/// record per line, comma separated, `#` comments and blank lines ignored:
///   node,<id>,<x>,<y>
///   edge,<node-id>,<node-id>
/// Node ids must be dense 0..n-1 (any order). The geometry need NOT be
/// planar: crossings are resolved via graph::Planarize (§4.2's flyover /
/// underpass handling), and the report of inserted junctions is returned
/// alongside the graph.
struct CsvImportResult {
  graph::PlanarGraph graph;
  size_t inserted_crossings = 0;
};
util::StatusOr<CsvImportResult> ImportRoadNetworkCsv(const std::string& path);

/// Text export matching ImportRoadNetworkCsv's format.
util::Status ExportRoadNetworkCsv(const graph::PlanarGraph& graph,
                                  const std::string& path);

/// Positions a frozen-store snapshot against the write-ahead log it was cut
/// from (io/event_log.h): recovery loads the snapshot and replays only the
/// WAL tail past `covered_events` instead of the full stream.
struct FrozenSnapshotMeta {
  uint64_t generation = 0;      ///< Store generation the snapshot captured.
  uint64_t covered_epoch = 0;   ///< Last WAL epoch folded into the store.
  uint64_t covered_events = 0;  ///< Durable WAL events folded in.
};

/// Writes `store` (its persisted CSR form — the slot-major timestamp array
/// and row pointers; the bucket index is derived and rebuilt on load) plus
/// `meta`, CRC-sealed, to `path` atomically: the bytes land in `path`.tmp,
/// are fsync'd, and are renamed over `path` only when complete — a crash
/// mid-snapshot (crash point "snapshot:post-header") leaves at worst a
/// stale .tmp that loaders never look at.
util::Status SaveFrozenSnapshot(const forms::FrozenTrackingForm& store,
                                const FrozenSnapshotMeta& meta,
                                const std::string& path);

/// Snapshot of a run list (a live-ingest generation): byte-identical to
/// SaveFrozenSnapshot of a from-scratch freeze of the same events, written
/// slot by slot from the runs without building a merged copy. A slot's
/// bytes are its merged sequence, so the file loads as one store.
util::Status SaveFrozenSnapshot(const forms::FrozenRuns& store,
                                const FrozenSnapshotMeta& meta,
                                const std::string& path);

struct LoadedFrozenSnapshot {
  forms::FrozenTrackingForm store;
  FrozenSnapshotMeta meta;
};

/// Reads a snapshot back, validating the CRC, the header counts, and every
/// CSR invariant (monotone row pointers, per-slot sorted timestamps)
/// BEFORE constructing, so a corrupt or truncated file fails with
/// InvalidArgument instead of aborting. The rebuilt store is bit-identical
/// to the one that was saved.
util::StatusOr<LoadedFrozenSnapshot> LoadFrozenSnapshot(
    const std::string& path);

}  // namespace innet::io

#endif  // INNET_IO_SERIALIZE_H_
