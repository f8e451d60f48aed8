#include "runtime/boundary_cache.h"

#include <algorithm>

#include "util/logging.h"

namespace innet::runtime {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

RegionSignature SignRegion(const std::vector<graph::NodeId>& junctions,
                           core::BoundMode bound) {
  uint64_t salt = bound == core::BoundMode::kLower ? 0xcbf29ce484222325ULL
                                                   : 0x84222325cbf29ce4ULL;
  // Two independent lanes in one pass, so their multiply chains overlap
  // instead of running back to back:
  //   lo: FNV-1a over the junction words, the bound folded into the offset
  //       basis so a region under lower vs upper bounds never aliases;
  //   hi: a multiply-xorshift chain seeded with the length, so permutations
  //       and prefixes separate, finished with SplitMix64.
  uint64_t lo = salt;
  uint64_t hi = SplitMix64(salt ^ junctions.size());
  for (graph::NodeId n : junctions) {
    uint64_t word = static_cast<uint64_t>(n);
    lo = (lo ^ word) * 0x100000001b3ULL;
    hi = (hi ^ (word + 0x9e3779b97f4a7c15ULL)) * 0xbf58476d1ce4e5b9ULL;
    hi ^= hi >> 31;
  }
  return {lo, SplitMix64(hi)};
}

BoundaryCache::BoundaryCache(size_t capacity, size_t shards,
                             obs::Counter* hits, obs::Counter* misses)
    : per_shard_capacity_(0),
      shards_(std::max<size_t>(1, shards)),
      hits_(hits),
      misses_(misses) {
  if (capacity > 0) {
    per_shard_capacity_ = (capacity + shards_.size() - 1) / shards_.size();
  }
  if (hits_ == nullptr) {
    owned_hits_ = std::make_unique<obs::Counter>("cache_hits");
    hits_ = owned_hits_.get();
  }
  if (misses_ == nullptr) {
    owned_misses_ = std::make_unique<obs::Counter>("cache_misses");
    misses_ = owned_misses_.get();
  }
}

std::shared_ptr<const core::ResolvedRegion> BoundaryCache::Lookup(
    const RegionSignature& key) {
  if (per_shard_capacity_ == 0) {
    misses_->Increment();
    return nullptr;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_->Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->Increment();
  return it->second->value;
}

void BoundaryCache::Insert(const RegionSignature& key,
                           std::shared_ptr<const core::ResolvedRegion> value) {
  if (per_shard_capacity_ == 0) return;
  INNET_CHECK(value != nullptr);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front({key, std::move(value)});
  shard.index[key] = shard.lru.begin();
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
  }
}

void BoundaryCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.lru.clear();
    shard.index.clear();
  }
}

size_t BoundaryCache::Size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace innet::runtime
