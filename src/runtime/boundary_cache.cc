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

BoundaryCache::BoundaryCache(size_t capacity, obs::Counter& hits,
                             obs::Counter& misses)
    : capacity_(capacity),
      shards_(std::clamp<size_t>(capacity, 1, kMaxShards)),
      hits_(&hits),
      misses_(&misses) {
  // The first capacity % shards shards take one entry more than the rest.
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].capacity = capacity / shards_.size() +
                          (i < capacity % shards_.size() ? 1 : 0);
  }
}

std::shared_ptr<const core::ResolvedRegion> BoundaryCache::Lookup(
    const RegionSignature& key) {
  if (capacity_ == 0) {
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
  if (capacity_ == 0) return;
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
  if (shard.lru.size() > shard.capacity) {
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
