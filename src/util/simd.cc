#include "util/simd.h"

#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif
#endif

namespace innet::util::simd {

namespace {

size_t CountLessEqualScalarImpl(const double* p, size_t n, double t) {
  // Branchless: the comparison lowers to setcc/cset, no data-dependent
  // branches for the predictor to miss on duplicate-heavy spans.
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += p[i] <= t ? 1 : 0;
  return count;
}

// One compare per box side, combined without short-circuit so the loop
// stays branch-free; `&` of the four ordered compares is Rect::Contains.
inline bool BoxInside(const BoxColumns& b, size_t i, const QueryBox& q) {
  return (b.min_x[i] >= q.min_x) & (b.max_x[i] <= q.max_x) &
         (b.min_y[i] >= q.min_y) & (b.max_y[i] <= q.max_y);
}

size_t BoxesInsideScalarImpl(const BoxColumns& boxes, size_t begin,
                             size_t end, const QueryBox& query,
                             uint32_t* out) {
  // Every index is written; only hits advance the cursor, so out[k] is
  // overwritten by the next candidate until one lands.
  size_t k = 0;
  for (size_t i = begin; i < end; ++i) {
    out[k] = static_cast<uint32_t>(i);
    k += BoxInside(boxes, i, query) ? 1 : 0;
  }
  return k;
}

// CRC-32C, reflected polynomial 0x82f63b78, one byte per step through a
// 256-entry table: the portable path, and the reference the hardware
// path is pinned against.
const uint32_t* Crc32cTable() {
  static const uint32_t* const kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  return kTable;
}

uint32_t Crc32cExtendTableImpl(uint32_t state, const void* data,
                               size_t bytes) {
  const uint32_t* table = Crc32cTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    state = table[(state ^ p[i]) & 0xffu] ^ (state >> 8);
  }
  return state;
}

// Feeds the eight bytes of `word`, least significant first.
inline uint32_t Crc32cTableWord(const uint32_t* table, uint32_t state,
                                uint64_t word) {
  for (int k = 0; k < 8; ++k) {
    state = table[(state ^ static_cast<uint32_t>(word >> (8 * k))) & 0xffu] ^
            (state >> 8);
  }
  return state;
}

uint32_t Crc32cExtendWordsTableImpl(uint32_t state, uint64_t lo, uint64_t hi,
                                    uint8_t tail) {
  const uint32_t* table = Crc32cTable();
  state = Crc32cTableWord(table, state, lo);
  state = Crc32cTableWord(table, state, hi);
  return table[(state ^ tail) & 0xffu] ^ (state >> 8);
}

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli
// CRC as the table, eight bytes per step; the 64-bit form reads its word
// little-endian, the order the table walks memory.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42Impl(
    uint32_t state, const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t wide = state;
  for (; bytes >= 8; bytes -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  state = static_cast<uint32_t>(wide);
  for (; bytes > 0; --bytes, ++p) state = _mm_crc32_u8(state, *p);
  return state;
}

__attribute__((target("sse4.2"))) uint32_t Crc32cExtendWordsSse42Impl(
    uint32_t state, uint64_t lo, uint64_t hi, uint8_t tail) {
  uint64_t wide = _mm_crc32_u64(_mm_crc32_u64(state, lo), hi);
  return _mm_crc32_u8(static_cast<uint32_t>(wide), tail);
}

bool HasSse42() {
  static const bool kHas = __builtin_cpu_supports("sse4.2");
  return kHas;
}
#endif

#if defined(__x86_64__) || defined(__i386__)
// Lane offsets of the set bits of a 4-bit mask, packed low: the left-pack
// shuffle BoxesInsideAvx2Impl stores for each group of four boxes.
alignas(16) constexpr int32_t kLeftPack[16][4] = {
    {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},
    {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},
    {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},
    {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3}};

__attribute__((target("avx2,popcnt"))) size_t BoxesInsideAvx2Impl(
    const BoxColumns& boxes, size_t begin, size_t end, const QueryBox& query,
    uint32_t* out) {
  const __m256d qx0 = _mm256_set1_pd(query.min_x);
  const __m256d qy0 = _mm256_set1_pd(query.min_y);
  const __m256d qx1 = _mm256_set1_pd(query.max_x);
  const __m256d qy1 = _mm256_set1_pd(query.max_y);
  size_t k = 0;
  size_t i = begin;
  // Four boxes per step: four ordered compares, one movemask, then a
  // left-packed store of all four candidate ids of which the first
  // popcount(mask) are hits. The store stays inside out[0, end - begin)
  // because k <= i - begin.
  for (; i + 4 <= end; i += 4) {
    __m256d inside = _mm256_and_pd(
        _mm256_and_pd(
            _mm256_cmp_pd(_mm256_loadu_pd(boxes.min_x + i), qx0, _CMP_GE_OQ),
            _mm256_cmp_pd(_mm256_loadu_pd(boxes.max_x + i), qx1,
                          _CMP_LE_OQ)),
        _mm256_and_pd(
            _mm256_cmp_pd(_mm256_loadu_pd(boxes.min_y + i), qy0, _CMP_GE_OQ),
            _mm256_cmp_pd(_mm256_loadu_pd(boxes.max_y + i), qy1,
                          _CMP_LE_OQ)));
    int mask = _mm256_movemask_pd(inside);
    __m128i ids = _mm_add_epi32(
        _mm_set1_epi32(static_cast<int32_t>(i)),
        _mm_load_si128(reinterpret_cast<const __m128i*>(kLeftPack[mask])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k), ids);
    k += static_cast<unsigned>(__builtin_popcount(mask));
  }
  for (; i < end; ++i) {
    out[k] = static_cast<uint32_t>(i);
    k += BoxInside(boxes, i, query) ? 1 : 0;
  }
  return k;
}

__attribute__((target("avx2,popcnt"))) size_t CountLessEqualAvx2Impl(
    const double* p, size_t n, double t) {
  const __m256d vt = _mm256_set1_pd(t);
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    int m0 = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(p + i), vt, _CMP_LE_OQ));
    int m1 = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(p + i + 4), vt, _CMP_LE_OQ));
    count += static_cast<unsigned>(__builtin_popcount((m1 << 4) | m0));
  }
  if (i + 4 <= n) {
    count += static_cast<unsigned>(__builtin_popcount(_mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(p + i), vt, _CMP_LE_OQ))));
    i += 4;
  }
  for (; i < n; ++i) count += p[i] <= t ? 1 : 0;
  return count;
}
#endif

#if defined(__aarch64__)
size_t CountLessEqualNeonImpl(const double* p, size_t n, double t) {
  const float64x2_t vt = vdupq_n_f64(t);
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // Lane mask is all-ones (== uint64 -1) where p[i] <= t; subtracting
    // accumulates +1 per matching lane.
    acc = vsubq_u64(acc, vcleq_f64(vld1q_f64(p + i), vt));
  }
  size_t count = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; i < n; ++i) count += p[i] <= t ? 1 : 0;
  return count;
}
#endif

struct Kernels {
  CountLessEqualFn count_less_equal;
  BoxesInsideFn boxes_inside;
  Crc32cExtendFn crc32c_extend;
  Crc32cExtendWordsFn crc32c_extend_words;
};

Kernels KernelsFor(SimdLevel level) {
  switch (level) {
#if defined(__x86_64__) || defined(__i386__)
    case SimdLevel::kAvx2: {
      Kernels kernels{&CountLessEqualAvx2Impl, &BoxesInsideAvx2Impl,
                      &Crc32cExtendTableImpl, &Crc32cExtendWordsTableImpl};
#if defined(__x86_64__)
      if (HasSse42()) {
        kernels.crc32c_extend = &Crc32cExtendSse42Impl;
        kernels.crc32c_extend_words = &Crc32cExtendWordsSse42Impl;
      }
#endif
      return kernels;
    }
#endif
#if defined(__aarch64__)
    case SimdLevel::kNeon:
      return {&CountLessEqualNeonImpl, &BoxesInsideScalarImpl,
              &Crc32cExtendTableImpl, &Crc32cExtendWordsTableImpl};
#endif
    default:
      return {&CountLessEqualScalarImpl, &BoxesInsideScalarImpl,
              &Crc32cExtendTableImpl, &Crc32cExtendWordsTableImpl};
  }
}

// -1 until the first resolve (env override + detection); >= 0 afterwards.
std::atomic<int> g_active_level{-1};
std::once_flag g_resolve_once;

void Install(SimdLevel level) {
  Kernels kernels = KernelsFor(level);
  detail::g_count_less_equal.store(kernels.count_less_equal,
                                   std::memory_order_relaxed);
  detail::g_boxes_inside.store(kernels.boxes_inside,
                               std::memory_order_relaxed);
  detail::g_crc32c_extend.store(kernels.crc32c_extend,
                                std::memory_order_relaxed);
  detail::g_crc32c_extend_words.store(kernels.crc32c_extend_words,
                                      std::memory_order_relaxed);
  g_active_level.store(static_cast<int>(level), std::memory_order_release);
}

void ResolveActiveLevel() {
  SimdLevel level = DetectedSimdLevel();
  const char* env = std::getenv("INNET_SIMD");
  if (env != nullptr && env[0] != '\0') {
    SimdLevel requested;
    if (!ParseSimdLevel(env, &requested)) {
      INNET_LOG(WARN) << "INNET_SIMD=" << env
                      << " is not scalar|avx2|neon|native; using detected "
                      << SimdLevelName(level);
    } else if (!SimdLevelSupported(requested)) {
      INNET_LOG(WARN) << "INNET_SIMD=" << env
                      << " is not supported on this hardware; using detected "
                      << SimdLevelName(level);
    } else {
      level = requested;
    }
  }
  Install(level);
}

size_t CountLessEqualResolve(const double* p, size_t n, double t) {
  ActiveSimdLevel();  // Installs the real kernel pointers as a side effect.
  return detail::g_count_less_equal.load(std::memory_order_relaxed)(p, n, t);
}

size_t BoxesInsideResolve(const BoxColumns& boxes, size_t begin, size_t end,
                          const QueryBox& query, uint32_t* out) {
  ActiveSimdLevel();
  return detail::g_boxes_inside.load(std::memory_order_relaxed)(
      boxes, begin, end, query, out);
}

uint32_t Crc32cExtendResolve(uint32_t state, const void* data,
                             size_t bytes) {
  ActiveSimdLevel();
  return detail::g_crc32c_extend.load(std::memory_order_relaxed)(state, data,
                                                                  bytes);
}

uint32_t Crc32cExtendWordsResolve(uint32_t state, uint64_t lo, uint64_t hi,
                                  uint8_t tail) {
  ActiveSimdLevel();
  return detail::g_crc32c_extend_words.load(std::memory_order_relaxed)(
      state, lo, hi, tail);
}

}  // namespace

namespace detail {
std::atomic<CountLessEqualFn> g_count_less_equal{&CountLessEqualResolve};
std::atomic<BoxesInsideFn> g_boxes_inside{&BoxesInsideResolve};
std::atomic<Crc32cExtendFn> g_crc32c_extend{&Crc32cExtendResolve};
std::atomic<Crc32cExtendWordsFn> g_crc32c_extend_words{
    &Crc32cExtendWordsResolve};
}  // namespace detail

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

bool ParseSimdLevel(const char* name, SimdLevel* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = SimdLevel::kScalar;
  } else if (std::strcmp(name, "avx2") == 0) {
    *out = SimdLevel::kAvx2;
  } else if (std::strcmp(name, "neon") == 0) {
    *out = SimdLevel::kNeon;
  } else if (std::strcmp(name, "native") == 0) {
    *out = DetectedSimdLevel();
  } else {
    return false;
  }
  return true;
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel kDetected = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
    return SimdLevel::kScalar;
#elif defined(__aarch64__) && defined(__linux__)
    if (getauxval(AT_HWCAP) & HWCAP_ASIMD) return SimdLevel::kNeon;
    return SimdLevel::kScalar;
#elif defined(__aarch64__)
    return SimdLevel::kNeon;  // NEON is architecturally baseline on v8-A.
#else
    return SimdLevel::kScalar;
#endif
  }();
  return kDetected;
}

bool SimdLevelSupported(SimdLevel level) {
  return level == SimdLevel::kScalar || level == DetectedSimdLevel();
}

SimdLevel ActiveSimdLevel() {
  if (g_active_level.load(std::memory_order_acquire) < 0) {
    std::call_once(g_resolve_once, ResolveActiveLevel);
  }
  return static_cast<SimdLevel>(
      g_active_level.load(std::memory_order_acquire));
}

const char* ActiveSimdName() { return SimdLevelName(ActiveSimdLevel()); }

bool SetActiveSimdLevel(SimdLevel level) {
  if (!SimdLevelSupported(level)) return false;
  Install(level);
  return true;
}

size_t CountLessEqualAt(SimdLevel level, const double* p, size_t n,
                        double t) {
  INNET_CHECK(SimdLevelSupported(level));
  return KernelsFor(level).count_less_equal(p, n, t);
}

size_t BoxesInsideAt(SimdLevel level, const BoxColumns& boxes, size_t begin,
                     size_t end, const QueryBox& query, uint32_t* out) {
  INNET_CHECK(SimdLevelSupported(level));
  return KernelsFor(level).boxes_inside(boxes, begin, end, query, out);
}

uint32_t Crc32cExtendAt(SimdLevel level, uint32_t state, const void* data,
                        size_t bytes) {
  INNET_CHECK(SimdLevelSupported(level));
  return KernelsFor(level).crc32c_extend(state, data, bytes);
}

uint32_t Crc32cExtendWordsAt(SimdLevel level, uint32_t state, uint64_t lo,
                             uint64_t hi, uint8_t tail) {
  INNET_CHECK(SimdLevelSupported(level));
  return KernelsFor(level).crc32c_extend_words(state, lo, hi, tail);
}

}  // namespace innet::util::simd
