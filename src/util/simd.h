// Runtime SIMD dispatch for the query read path and the WAL checksum.
//
// Three primitives carry the hot scans:
//   - CountLessEqual: how many timestamps in a short contiguous span are
//     <= a probe time — the frozen CSR kernels
//     (forms/frozen_tracking_form.h) spend their time here;
//   - BoxesInside: which boxes of a structure-of-arrays column set lie
//     inside a query box — the rectangle-to-junction front end
//     (core::SensorNetwork::JunctionsInRect);
//   - Crc32cExtend / Crc32cExtendWords: the CRC-32C behind every WAL frame
//     and snapshot checksum (io/event_log.h).
// This header resolves each to the widest unit the host actually has —
// AVX2 (with SSE4.2 `crc32` for the checksum) on x86-64, NEON on aarch64
// (CountLessEqual only; the others run their scalar loops there), a
// branchless scalar loop or the 256-entry CRC table everywhere else —
// picked once at startup via cpuid (`__builtin_cpu_supports`) /
// `getauxval(AT_HWCAP)` and overridable with the `INNET_SIMD` environment
// variable (`avx2`, `neon`, `scalar`, or `native` for the detected best).
// Every path computes the IDENTICAL result: IEEE ordered compares are exact
// in every width and the `crc32` instruction computes the Castagnoli CRC
// the table does, so dispatch never changes a count, a hit list or a byte
// on disk (tests/simd_test.cc and tests/event_log_test.cc pin all levels
// against each other).
//
// The active level is observable through `ActiveSimdName()` — surfaced as
// the `simd` label on `innet_build_info` and in `/varz` (docs/
// OBSERVABILITY.md) — and forceable per-scope in tests with ScopedSimdLevel.
#ifndef INNET_UTIL_SIMD_H_
#define INNET_UTIL_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace innet::util::simd {

enum class SimdLevel : uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// "scalar" / "avx2" / "neon".
const char* SimdLevelName(SimdLevel level);

/// Parses "scalar" / "avx2" / "neon" (case-sensitive) into `out`. "native"
/// resolves to the detected best level. Returns false on anything else.
bool ParseSimdLevel(const char* name, SimdLevel* out);

/// Widest level this hardware supports (cpuid / hwcaps; cached).
SimdLevel DetectedSimdLevel();

/// Whether `level` can run on this hardware (kScalar always can).
bool SimdLevelSupported(SimdLevel level);

/// The level the dispatched kernels currently run at. Resolved on first use:
/// the `INNET_SIMD` override when set and supported (unsupported or
/// malformed values WARN once and fall back), else the detected best.
SimdLevel ActiveSimdLevel();

/// SimdLevelName(ActiveSimdLevel()).
const char* ActiveSimdName();

/// Forces the dispatched kernels to `level`. Returns false (and changes
/// nothing) if the hardware cannot run it. Swaps one atomic function
/// pointer per primitive — safe against concurrent readers, but intended
/// for startup and test scopes, not steady-state toggling.
bool SetActiveSimdLevel(SimdLevel level);

/// RAII dispatch override for tests: forces `level` if supported, restores
/// the previous level on destruction. `ok()` reports whether the force took.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(ActiveSimdLevel()), ok_(SetActiveSimdLevel(level)) {}
  ~ScopedSimdLevel() { SetActiveSimdLevel(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;
  bool ok() const { return ok_; }

 private:
  SimdLevel previous_;
  bool ok_;
};

using CountLessEqualFn = size_t (*)(const double*, size_t, double);

/// Axis-aligned boxes as four parallel columns: box i is
/// [min_x[i], max_x[i]] x [min_y[i], max_y[i]].
struct BoxColumns {
  const double* min_x = nullptr;
  const double* min_y = nullptr;
  const double* max_x = nullptr;
  const double* max_y = nullptr;
};

/// The closed query box of BoxesInside.
struct QueryBox {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;
};

using BoxesInsideFn = size_t (*)(const BoxColumns&, size_t, size_t,
                                 const QueryBox&, uint32_t*);

using Crc32cExtendFn = uint32_t (*)(uint32_t, const void*, size_t);
using Crc32cExtendWordsFn = uint32_t (*)(uint32_t, uint64_t, uint64_t,
                                         uint8_t);

namespace detail {
// Each starts at a resolver trampoline that installs the active level's
// kernels on first call; after that it is a direct pointer to the level's
// entry.
extern std::atomic<CountLessEqualFn> g_count_less_equal;
extern std::atomic<BoxesInsideFn> g_boxes_inside;
extern std::atomic<Crc32cExtendFn> g_crc32c_extend;
extern std::atomic<Crc32cExtendWordsFn> g_crc32c_extend_words;
}  // namespace detail

/// Number of elements of [p, p+n) with value <= t. No ordering assumption;
/// NaN elements and NaN probes never count (IEEE ordered-compare
/// semantics, matching the scalar `p[i] <= t`). Exact at every level.
inline size_t CountLessEqual(const double* p, size_t n, double t) {
  return detail::g_count_less_equal.load(std::memory_order_relaxed)(p, n, t);
}

/// Direct per-level entry, bypassing dispatch — for property tests that
/// cross-check levels against each other. CHECK-fails if `level` is not
/// supported on this hardware (guard with SimdLevelSupported).
size_t CountLessEqualAt(SimdLevel level, const double* p, size_t n, double t);

/// Writes to `out`, in ascending order, every index i in [begin, end) whose
/// box lies inside `query`:
///   min_x[i] >= query.min_x && max_x[i] <= query.max_x &&
///   min_y[i] >= query.min_y && max_y[i] <= query.max_y
/// — geometry::Rect::Contains, compare for compare. Compares are IEEE
/// ordered, so a NaN on either side never matches; an inverted query box
/// (min > max) holds no box of positive extent. Returns the number written.
/// Branch-free at every level: `out` must have room for `end - begin`
/// entries, all of which the kernel may overwrite. Exact at every level.
inline size_t BoxesInside(const BoxColumns& boxes, size_t begin, size_t end,
                          const QueryBox& query, uint32_t* out) {
  return detail::g_boxes_inside.load(std::memory_order_relaxed)(
      boxes, begin, end, query, out);
}

/// Direct per-level entry of BoxesInside, bypassing dispatch (same contract
/// as CountLessEqualAt).
size_t BoxesInsideAt(SimdLevel level, const BoxColumns& boxes, size_t begin,
                     size_t end, const QueryBox& query, uint32_t* out);

/// CRC-32C (Castagnoli, reflected polynomial 0x82f63b78) state update:
/// feeds the `bytes` bytes at `data` into `state`, with no initial or final
/// inversion (io::Crc32c applies both). At kAvx2 it runs the SSE4.2 `crc32`
/// instruction eight bytes per step, when cpuid reports SSE4.2; at every
/// other level, and on x86-64 hosts without SSE4.2, the 256-entry table a
/// byte per step. Identical results at every level.
inline uint32_t Crc32cExtend(uint32_t state, const void* data, size_t bytes) {
  return detail::g_crc32c_extend.load(std::memory_order_relaxed)(state, data,
                                                                  bytes);
}

/// The same update over 17 bytes held in registers: the eight
/// little-endian bytes of `lo`, then those of `hi`, then `tail`. Equal to
/// Crc32cExtend over those bytes stored in that order, but never reads
/// them from memory — the WAL checksums each event payload before storing
/// it, since reading just-stored bytes back stalls on store forwarding.
inline uint32_t Crc32cExtendWords(uint32_t state, uint64_t lo, uint64_t hi,
                                  uint8_t tail) {
  return detail::g_crc32c_extend_words.load(std::memory_order_relaxed)(
      state, lo, hi, tail);
}

/// Direct per-level entries of the CRC-32C updates, bypassing dispatch
/// (same contract as CountLessEqualAt).
uint32_t Crc32cExtendAt(SimdLevel level, uint32_t state, const void* data,
                        size_t bytes);
uint32_t Crc32cExtendWordsAt(SimdLevel level, uint32_t state, uint64_t lo,
                             uint64_t hi, uint8_t tail);

/// Number of leading elements of the SORTED span [p, p+n) with value <= t —
/// equivalently std::upper_bound(p, p+n, t) - p, but computed with an
/// exponential gallop to bracket the crossing followed by one vectorized
/// window count, so dense series steps (small advances) cost a couple of
/// compares and sparse ones stay O(log gap + window/width). NaN probes
/// return 0 (nothing is <= NaN).
inline size_t CountLeadingLessEqualSorted(const double* p, size_t n,
                                          double t) {
  if (n == 0 || !(p[0] <= t)) return 0;
  if (p[n - 1] <= t) return n;
  // p[0] <= t < p[n-1]: gallop until an element > t brackets the crossing.
  size_t bound = 1;
  while (bound < n && p[bound] <= t) bound <<= 1;
  size_t lo = (bound >> 1) + 1;  // Everything below lo is known <= t.
  size_t hi = bound < n ? bound : n;  // Everything at/after hi is > t.
  return lo + CountLessEqual(p + lo, hi - lo, t);
}

}  // namespace innet::util::simd

#endif  // INNET_UTIL_SIMD_H_
