// Sharded LRU cache of resolved region boundaries.
//
// Resolving a query against the sampled graph (SampledGraph::ResolveFaces
// + BoundaryOfFaces) costs O(|Q_R| + the resolved faces' boundary-table
// rows) per query, plus the copy into an owned entry, and is identical for
// every repetition of the same region — the dominant redundant work of
// dashboard/monitoring traffic where many clients poll overlapping regions.
// This cache memoizes the resolved region (core::ResolvedRegion: faces,
// boundary, and — for health-aware engines — the healthy deformations)
// keyed by (region signature, bound mode) so repeated queries skip
// resolution entirely and go straight to count evaluation; a hit costs one
// signature pass over the junction list and a shard probe. Entries never
// outlive a health or store generation: BatchQueryEngine clears the cache
// on both transitions.
//
// Values are shared_ptr<const ...>: a hit hands out a reference to the
// immutable resolved region, so eviction never invalidates an in-flight
// evaluation. Sharding keeps lock contention bounded under a worker pool.
#ifndef INNET_RUNTIME_BOUNDARY_CACHE_H_
#define INNET_RUNTIME_BOUNDARY_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "core/resolved_region.h"
#include "obs/metrics.h"

namespace innet::runtime {

/// 128-bit signature of a query region under one bound mode. Two
/// independent 64-bit hashes over the junction sequence, computed in one
/// pass, make accidental collisions negligible (~2^-64 per pair) without
/// retaining the junction vector itself.
struct RegionSignature {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const RegionSignature& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

/// Signature of `junctions` under `bound`: sensitive to the bound, to
/// order, and to length (prefixes differ). The junction sequence produced
/// by SensorNetwork::JunctionsInRect is ascending and deterministic for a
/// given rect, so equal rects map to equal signatures.
RegionSignature SignRegion(const std::vector<graph::NodeId>& junctions,
                           core::BoundMode bound);

/// Sharded LRU map from RegionSignature to core::ResolvedRegion.
class BoundaryCache {
 public:
  /// Most lock shards a cache splits into.
  static constexpr size_t kMaxShards = 16;

  /// `capacity` entries total, split over min(kMaxShards, capacity) shards
  /// whose capacities sum exactly to `capacity`, so the cache never holds
  /// more. `capacity == 0` disables the cache: Lookup always misses and
  /// Insert is a no-op.
  ///
  /// `hits`/`misses` are the counters the cache increments — registry
  /// counters (`innet_cache_hits`/`innet_cache_misses`), so hit rates
  /// export without extra plumbing. Both must outlive the cache.
  BoundaryCache(size_t capacity, obs::Counter& hits, obs::Counter& misses);

  /// Returns the cached boundary and refreshes its recency, or nullptr.
  std::shared_ptr<const core::ResolvedRegion> Lookup(
      const RegionSignature& key);

  /// Publishes a resolved boundary, evicting the shard's least recently
  /// used entry when full. Racing inserts of the same key are benign (last
  /// write wins; both values are identical by construction).
  void Insert(const RegionSignature& key,
              std::shared_ptr<const core::ResolvedRegion> value);

  void Clear();

  /// Zeroes the hit/miss counters (entries are kept). When the counters
  /// are registry-backed this resets the exported metrics too — the
  /// snapshot and the export stay one source of truth.
  void ResetCounters() {
    hits_->Reset();
    misses_->Reset();
  }

  size_t Size() const;
  uint64_t Hits() const { return hits_->Value(); }
  uint64_t Misses() const { return misses_->Value(); }

 private:
  struct Entry {
    RegionSignature key;
    std::shared_ptr<const core::ResolvedRegion> value;
  };
  struct SignatureHash {
    size_t operator()(const RegionSignature& s) const {
      return static_cast<size_t>(s.lo ^ (s.hi * 0x9e3779b97f4a7c15ULL));
    }
  };
  struct Shard {
    mutable std::mutex mutex;
    size_t capacity = 0;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<RegionSignature, std::list<Entry>::iterator,
                       SignatureHash>
        index;
  };

  Shard& ShardFor(const RegionSignature& key) {
    return shards_[key.hi % shards_.size()];
  }

  size_t capacity_;
  std::vector<Shard> shards_;
  obs::Counter* hits_;
  obs::Counter* misses_;
};

}  // namespace innet::runtime

#endif  // INNET_RUNTIME_BOUNDARY_CACHE_H_
