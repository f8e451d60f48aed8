// Deterministic random number generation for reproducible experiments.
//
// All randomized components of the library (samplers, generators, query
// workloads) take an explicit Rng so that a single seed reproduces an entire
// experiment end to end.
#ifndef INNET_UTIL_RNG_H_
#define INNET_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "util/logging.h"

namespace innet::util {

/// Deterministic pseudo-random generator. Wraps std::mt19937_64 seeded
/// through SplitMix64 so that nearby seeds produce uncorrelated streams.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(SplitMix64(seed)) {}

  /// Derives an independent child generator; used to give each component of
  /// an experiment its own stream without coupling their consumption rates.
  Rng Fork() { return Rng(engine_()); }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    INNET_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). Requires n > 0.
  size_t UniformIndex(size_t n) {
    INNET_DCHECK(n > 0);
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal deviate. Requires stddev >= 0; stddev 0 returns `mean`.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    INNET_DCHECK(stddev >= 0.0);
    if (stddev > 0.0) {
      return std::normal_distribution<double>(mean, stddev)(engine_);
    }
    // std::normal_distribution requires stddev > 0. Draw the standard
    // deviate anyway, so a zero spread consumes the engine exactly as a
    // positive one does and the draws after it are unchanged.
    std::normal_distribution<double>()(engine_);
    return mean;
  }

  /// Exponential deviate with the given rate (events per unit time).
  double Exponential(double rate) {
    INNET_DCHECK(rate > 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformIndex(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples k distinct indices from [0, n) uniformly (k <= n). Order is
  /// randomized. Runs in O(n) time.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  std::mt19937_64& engine() { return engine_; }

 private:
  static uint64_t SplitMix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::mt19937_64 engine_;
};

}  // namespace innet::util

#endif  // INNET_UTIL_RNG_H_
