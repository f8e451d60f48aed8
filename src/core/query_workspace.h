// Per-thread scratch space for the resolve-and-integrate query hot path.
//
// Answering one range query used to heap-allocate half a dozen transient
// vectors: the per-face hit counts of face resolution, the boundary edge
// and sensor lists of BoundaryOfFaces, the junction mask and flooded-
// sensor set of the unsampled processor. A QueryWorkspace owns all of that
// scratch once; repeated queries through the same workspace reuse the
// retained capacity, so the steady-state per-query allocation count is ZERO
// (pinned by tests/workspace_test.cc via util/alloc_probe.h).
//
// Membership marks are GENERATION-STAMPED: instead of clearing an
// O(domain) array per query, each primitive bumps the workspace generation
// and treats an entry as "set" only when its stamp equals the current
// generation. A bump is O(1); the arrays are cleared only on the (once per
// 2^32 operations) generation wrap. Id BITMAPS, which hand back touched
// face and edge ids in ascending order without a sort, are instead kept
// all-zero between operations: the primitive that sets bits clears the
// words it reads back.
//
// Thread safety: a workspace is mutable scratch — one thread at a time.
// Use one workspace per worker thread (runtime::BatchQueryEngine does this
// via LocalWorkspace()); results are independent of workspace history, so
// any thread-to-workspace assignment yields bit-identical answers.
#ifndef INNET_CORE_QUERY_WORKSPACE_H_
#define INNET_CORE_QUERY_WORKSPACE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/resolved_region.h"
#include "forms/region_count.h"
#include "graph/planar_graph.h"
#include "obs/query_cost.h"

namespace innet::core {

class QueryWorkspace {
 public:
  /// Starts a new stamped operation: bumps and returns the generation every
  /// mark array compares against. Wraparound resets the arrays.
  uint32_t NextGeneration() {
    if (++generation_ == 0) {
      std::fill(face_stamp_.begin(), face_stamp_.end(), 0u);
      std::fill(junction_stamp_.begin(), junction_stamp_.end(), 0u);
      std::fill(sensor_stamp_.begin(), sensor_stamp_.end(), 0u);
      generation_ = 1;
    }
    return generation_;
  }

  /// Grows the domains to cover `faces` face ids, `junctions` mobility
  /// nodes, `sensors` dual nodes and `edges` edge ids. Amortized:
  /// reallocates only when a larger graph is seen.
  void EnsureDomains(size_t faces, size_t junctions, size_t sensors,
                     size_t edges) {
    if (face_stamp_.size() < faces) {
      face_stamp_.resize(faces, 0);
      face_count_.resize(faces, 0);
      face_bits_.resize(BitmapWords(faces), 0);
    }
    if (junction_stamp_.size() < junctions) junction_stamp_.resize(junctions, 0);
    if (sensor_stamp_.size() < sensors) sensor_stamp_.resize(sensors, 0);
    if (edge_bits_.size() < BitmapWords(edges)) {
      edge_bits_.resize(BitmapWords(edges), 0);
      edge_forward_bits_.resize(BitmapWords(edges), 0);
    }
  }

  // --- Stamped marks (valid while the stamp equals NextGeneration()'s
  // return value; callers hold that value for the operation's duration). ---
  std::vector<uint32_t>& face_stamp() { return face_stamp_; }
  std::vector<uint32_t>& face_count() { return face_count_; }
  std::vector<uint32_t>& junction_stamp() { return junction_stamp_; }
  std::vector<uint32_t>& sensor_stamp() { return sensor_stamp_; }

  // --- Id bitmaps (bit i of word i / 64), all-zero between operations. ---
  std::vector<uint64_t>& face_bits() { return face_bits_; }
  std::vector<uint64_t>& edge_bits() { return edge_bits_; }
  std::vector<uint64_t>& edge_forward_bits() { return edge_forward_bits_; }

  // --- Reusable result buffers. Each primitive clears (size, not
  // capacity) the buffer it fills; contents stay valid until the same
  // buffer is reused. ---

  /// Resolved face list (SampledGraph::ResolveFaces output).
  std::vector<uint32_t> faces;
  /// Region boundary (BoundaryOfFaces / unsampled boundary output).
  std::vector<forms::BoundaryEdge> boundary_edges;
  std::vector<graph::NodeId> boundary_sensors;
  /// AnswerSeries output buffer.
  std::vector<double> series;
  /// The serial processor's resolved region (core/answer_core.h).
  ResolvedRegion region;

  /// Cost account of the LAST query answered through this workspace
  /// (docs/OBSERVABILITY.md §9). The processors overwrite it wholesale per
  /// Answer* call — plain stores into retained storage, so profiling adds
  /// zero allocations to the warm path. Valid until the next query reuses
  /// the workspace.
  obs::QueryCostProfile cost;

 private:
  static size_t BitmapWords(size_t ids) { return (ids + 63) / 64; }

  uint32_t generation_ = 0;
  std::vector<uint32_t> face_stamp_;
  std::vector<uint32_t> face_count_;
  std::vector<uint32_t> junction_stamp_;
  std::vector<uint32_t> sensor_stamp_;
  std::vector<uint64_t> face_bits_;
  std::vector<uint64_t> edge_bits_;
  std::vector<uint64_t> edge_forward_bits_;
};

/// The calling thread's lazily-constructed workspace. Query paths that are
/// not handed an explicit workspace fall back to this, so single-threaded
/// tools and tests get the zero-allocation steady state for free. The
/// reference is valid for the thread's lifetime.
QueryWorkspace& LocalWorkspace();

}  // namespace innet::core

#endif  // INNET_CORE_QUERY_WORKSPACE_H_
