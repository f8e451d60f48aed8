// Property tests for the runtime SIMD dispatch layer (util/simd.h) and the
// vectorized frozen-store lookups built on it: every dispatch level this
// hardware supports must agree exactly with a scalar ground truth — and with
// std::upper_bound — over adversarial spans (duplicate-heavy, bucket-aligned,
// denormal, ±inf, NaN, empty, single-element), the box scan behind
// junction lookup with Rect::Contains, and both CRC-32C updates with a
// bitwise reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "forms/frozen_tracking_form.h"
#include "forms/tracking_form.h"
#include "geometry/rect.h"
#include "util/rng.h"
#include "util/simd.h"

namespace innet::util::simd {
namespace {

using forms::FrozenTrackingForm;
using forms::TrackingForm;

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel l : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (SimdLevelSupported(l)) levels.push_back(l);
  }
  return levels;
}

size_t GroundTruthCount(const std::vector<double>& v, double t) {
  size_t count = 0;
  for (double x : v) count += x <= t ? 1 : 0;
  return count;
}

TEST(SimdLevelTest, ParseRoundTripsAndRejectsGarbage) {
  SimdLevel out;
  ASSERT_TRUE(ParseSimdLevel("scalar", &out));
  EXPECT_EQ(out, SimdLevel::kScalar);
  ASSERT_TRUE(ParseSimdLevel("avx2", &out));
  EXPECT_EQ(out, SimdLevel::kAvx2);
  ASSERT_TRUE(ParseSimdLevel("neon", &out));
  EXPECT_EQ(out, SimdLevel::kNeon);
  ASSERT_TRUE(ParseSimdLevel("native", &out));
  EXPECT_EQ(out, DetectedSimdLevel());
  EXPECT_FALSE(ParseSimdLevel("sse9", &out));
  EXPECT_FALSE(ParseSimdLevel("", &out));
  EXPECT_FALSE(ParseSimdLevel(nullptr, &out));
}

TEST(SimdLevelTest, ScalarAlwaysSupportedAndDetectedIsSupported) {
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kScalar));
  EXPECT_TRUE(SimdLevelSupported(DetectedSimdLevel()));
}

TEST(SimdLevelTest, ScopedOverrideForcesAndRestores) {
  SimdLevel before = ActiveSimdLevel();
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    ASSERT_TRUE(scoped.ok());
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    EXPECT_STREQ(ActiveSimdName(), "scalar");
  }
  EXPECT_EQ(ActiveSimdLevel(), before);
}

TEST(SimdLevelTest, UnsupportedForceIsRefused) {
  // At most one of AVX2/NEON exists on any one machine, so the other must
  // be refused without disturbing the active level.
  SimdLevel before = ActiveSimdLevel();
  for (SimdLevel l : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (SimdLevelSupported(l)) continue;
    EXPECT_FALSE(SetActiveSimdLevel(l));
    EXPECT_EQ(ActiveSimdLevel(), before);
  }
}

// Adversarial spans: every length across the 8/4/scalar tail boundaries,
// duplicates, denormals, infinities, and NaN elements.
TEST(CountLessEqualTest, AllLevelsMatchGroundTruthOnAdversarialSpans) {
  util::Rng rng(31);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (size_t n = 0; n <= 40; ++n) {
    for (int variant = 0; variant < 6; ++variant) {
      std::vector<double> v(n);
      for (double& x : v) {
        switch (variant) {
          case 0: x = rng.Uniform(-100.0, 100.0); break;
          case 1: x = std::floor(rng.Uniform(0.0, 4.0)); break;  // Dup-heavy.
          case 2: x = rng.Bernoulli(0.5) ? denorm : -denorm; break;
          case 3: x = rng.Bernoulli(0.5) ? inf : -inf; break;
          case 4: x = rng.Bernoulli(0.2) ? nan : rng.Uniform(-1.0, 1.0); break;
          default: x = 42.0; break;  // All-equal.
        }
      }
      for (double t : {-inf, -100.0, -denorm, 0.0, denorm, 1.5, 42.0, 100.0,
                       inf, nan}) {
        size_t want = GroundTruthCount(v, t);
        for (SimdLevel level : SupportedLevels()) {
          EXPECT_EQ(CountLessEqualAt(level, v.data(), n, t), want)
              << "level=" << SimdLevelName(level) << " n=" << n
              << " variant=" << variant << " t=" << t;
        }
      }
    }
  }
}

// Box columns whose sides sit on, one ulp inside and one ulp outside the
// query box's sides, plus boxes carrying ±inf and NaN coordinates.
struct BoxSet {
  std::vector<double> min_x, min_y, max_x, max_y;

  void Add(const geometry::Rect& box) {
    min_x.push_back(box.min_x);
    min_y.push_back(box.min_y);
    max_x.push_back(box.max_x);
    max_y.push_back(box.max_y);
  }
  BoxColumns Columns() const {
    return {min_x.data(), min_y.data(), max_x.data(), max_y.data()};
  }
  geometry::Rect Box(size_t i) const {
    return geometry::Rect(min_x[i], min_y[i], max_x[i], max_y[i]);
  }
};

BoxSet AdversarialBoxes(size_t n, util::Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Coordinates drawn from the query sides of BoxesInsideTest and their
  // ulp neighbours, so ties and near-ties are common.
  const double edges[] = {0.0, 10.0, 20.0, 30.0};
  auto coordinate = [&]() {
    double x = edges[rng.UniformIndex(4)];
    switch (rng.UniformIndex(6)) {
      case 0: return std::nextafter(x, -inf);
      case 1: return std::nextafter(x, inf);
      case 2: return rng.Uniform(-5.0, 35.0);
      default: return x;
    }
  };
  BoxSet boxes;
  for (size_t i = 0; i < n; ++i) {
    double x0 = coordinate();
    double y0 = coordinate();
    geometry::Rect box(x0, y0, std::max(x0, coordinate()),
                       std::max(y0, coordinate()));
    switch (rng.UniformIndex(10)) {
      case 0: box.min_x = -inf; break;
      case 1: box.max_y = inf; break;
      case 2: box.max_x = nan; break;
      case 3: box.min_y = nan; break;
      default: break;
    }
    boxes.Add(box);
  }
  return boxes;
}

// Every supported level writes exactly the ascending indices whose box
// Rect::Contains, for every span [begin, end) across the 4-wide and scalar
// tail boundaries, against query boxes that are ordinary, degenerate,
// inverted, infinite or NaN.
TEST(BoxesInsideTest, AllLevelsMatchRectContains) {
  util::Rng rng(53);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  BoxSet boxes = AdversarialBoxes(48, rng);
  const BoxColumns columns = boxes.Columns();
  const std::vector<geometry::Rect> queries = {
      {10, 10, 20, 20},  {0, 0, 30, 30},     {10, 10, 10, 10},
      {10, 0, 10, 30},   {20, 20, 10, 10},   {-inf, -inf, inf, inf},
      {-inf, 0, 30, inf}, {nan, 0, 30, 30},  {0, 0, 30, nan},
      {nan, nan, nan, nan}};
  std::vector<uint32_t> out(boxes.min_x.size());
  for (const geometry::Rect& q : queries) {
    const QueryBox query{q.min_x, q.min_y, q.max_x, q.max_y};
    for (size_t begin : {size_t{0}, size_t{1}, size_t{3}, size_t{5}}) {
      for (size_t end = begin; end <= boxes.min_x.size(); ++end) {
        std::vector<uint32_t> want;
        for (size_t i = begin; i < end; ++i) {
          if (q.Contains(boxes.Box(i))) want.push_back(static_cast<uint32_t>(i));
        }
        for (SimdLevel level : SupportedLevels()) {
          size_t k = BoxesInsideAt(level, columns, begin, end, query,
                                   out.data());
          EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), want)
              << "level=" << SimdLevelName(level) << " begin=" << begin
              << " end=" << end << " query=(" << q.min_x << "," << q.min_y
              << "," << q.max_x << "," << q.max_y << ")";
        }
      }
    }
  }
}

// Random cross-level fuzz: every supported level agrees with scalar, and
// the dispatched entry with the forced level's.
TEST(BoxesInsideTest, CrossLevelFuzzAgreesWithScalar) {
  util::Rng rng(59);
  BoxSet boxes = AdversarialBoxes(301, rng);
  const BoxColumns columns = boxes.Columns();
  const size_t n = boxes.min_x.size();
  std::vector<uint32_t> want(n);
  std::vector<uint32_t> got(n);
  for (int trial = 0; trial < 2000; ++trial) {
    double x0 = rng.Uniform(-5.0, 35.0);
    double y0 = rng.Uniform(-5.0, 35.0);
    const QueryBox query{x0, y0, x0 + rng.Uniform(-2.0, 30.0),
                         y0 + rng.Uniform(-2.0, 30.0)};
    size_t begin = rng.UniformIndex(n);
    size_t end = begin + rng.UniformIndex(n - begin + 1);
    size_t want_count = BoxesInsideAt(SimdLevel::kScalar, columns, begin, end,
                                      query, want.data());
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel scoped(level);
      ASSERT_TRUE(scoped.ok());
      size_t k = BoxesInside(columns, begin, end, query, got.data());
      ASSERT_EQ(k, want_count) << "level=" << SimdLevelName(level);
      ASSERT_TRUE(std::equal(want.begin(), want.begin() + k, got.begin()))
          << "level=" << SimdLevelName(level) << " trial=" << trial;
    }
  }
}

TEST(CountLeadingLessEqualSortedTest, MatchesUpperBoundOnSortedSpans) {
  util::Rng rng(37);
  const double inf = std::numeric_limits<double>::infinity();
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                     size_t{8}, size_t{9}, size_t{64}, size_t{257}}) {
      std::vector<double> v(n);
      for (double& x : v) {
        x = rng.Uniform(0.0, 50.0);
        if (rng.Bernoulli(0.3)) x = std::floor(x);  // Duplicate runs.
      }
      std::sort(v.begin(), v.end());
      std::vector<double> probes = {-inf, -1.0, 25.0, 100.0, inf,
                                    std::numeric_limits<double>::quiet_NaN()};
      for (double x : v) {
        probes.push_back(x);
        probes.push_back(std::nextafter(x, -1e30));
        probes.push_back(std::nextafter(x, 1e30));
      }
      for (double t : probes) {
        size_t want = static_cast<size_t>(
            std::upper_bound(v.begin(), v.end(), t) - v.begin());
        if (std::isnan(t)) want = 0;  // upper_bound is UB on NaN; we define 0.
        ASSERT_EQ(CountLeadingLessEqualSorted(v.data(), n, t), want)
            << "level=" << SimdLevelName(level) << " n=" << n << " t=" << t;
      }
    }
  }
}

// A frozen store with slots tuned to stress the bucket index: empty,
// single-event, duplicate-plateau (whole buckets of one value),
// bucket-boundary-aligned integers, and dense random slots.
TrackingForm AdversarialForm() {
  util::Rng rng(41);
  TrackingForm form(6);
  // Edge 0 forward: empty (never recorded). Edge 0 backward: one event.
  form.RecordTraversal(0, false, 5.0);
  // Edge 1: duplicate plateaus — long runs of equal timestamps spanning
  // multiple buckets, the worst case for a forward guard walk.
  for (int i = 0; i < 100; ++i) form.RecordTraversal(1, true, 10.0);
  for (int i = 0; i < 100; ++i) form.RecordTraversal(1, true, 20.0);
  for (int i = 0; i < 50; ++i) form.RecordTraversal(1, false, 7.0);
  // Edge 2: exact integers aligned with bucket boundaries.
  for (int i = 0; i < 64; ++i) form.RecordTraversal(2, true, double(i));
  // Edge 3: dense random.
  {
    std::vector<double> ts(500);
    for (double& t : ts) t = rng.Uniform(0.0, 1000.0);
    std::sort(ts.begin(), ts.end());
    for (double t : ts) form.RecordTraversal(3, true, t);
  }
  // Edge 4: tiny magnitudes including denormals.
  {
    std::vector<double> ts = {-std::numeric_limits<double>::denorm_min(), 0.0,
                              std::numeric_limits<double>::denorm_min(),
                              1e-300, 1e-100, 1.0};
    for (double t : ts) form.RecordTraversal(4, true, t);
  }
  // Edge 5: two events far apart (degenerate bucket width).
  form.RecordTraversal(5, true, 0.0);
  form.RecordTraversal(5, true, 1e12);
  return form;
}

std::vector<double> ProbesFor(const std::vector<double>& seq) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = {-inf, -1e30, 1e30, inf,
                                std::numeric_limits<double>::quiet_NaN()};
  for (double t : seq) {
    probes.push_back(t);
    probes.push_back(std::nextafter(t, -1e300));
    probes.push_back(std::nextafter(t, 1e300));
  }
  return probes;
}

TEST(FrozenCountUpToSlotTest, MatchesUpperBoundAtEveryDispatchLevel) {
  TrackingForm tracking = AdversarialForm();
  FrozenTrackingForm frozen = tracking.Freeze();
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    for (graph::EdgeId e = 0; e < tracking.num_edges(); ++e) {
      for (bool forward : {true, false}) {
        const std::vector<double>& seq = tracking.Sequence(e, forward);
        size_t slot = FrozenTrackingForm::Slot(e, forward);
        for (double t : ProbesFor(seq)) {
          size_t want = static_cast<size_t>(
              std::upper_bound(seq.begin(), seq.end(), t) - seq.begin());
          if (std::isnan(t)) want = 0;
          ASSERT_EQ(frozen.CountUpToSlot(slot, t), want)
              << "level=" << SimdLevelName(level) << " edge=" << e
              << " fwd=" << forward << " t=" << t;
        }
      }
    }
  }
}

TEST(FrozenCountUpToSlotsTest, BatchedLookupMatchesSingleSlotLookups) {
  TrackingForm tracking = AdversarialForm();
  FrozenTrackingForm frozen = tracking.Freeze();
  util::Rng rng(43);
  size_t num_slots = 2 * tracking.num_edges();
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    for (size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         size_t{17}, size_t{300}}) {
      std::vector<size_t> slots(count);
      for (size_t& s : slots) s = rng.UniformIndex(num_slots);
      for (double t : {-1.0, 9.99, 10.0, 20.0, 512.5, 1e13,
                       std::numeric_limits<double>::infinity()}) {
        std::vector<size_t> out(count, size_t{999});
        frozen.CountUpToSlots(slots.data(), count, t, out.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(out[i], frozen.CountUpToSlot(slots[i], t))
              << "level=" << SimdLevelName(level) << " i=" << i << " t=" << t;
        }
      }
    }
  }
}

// Random cross-level fuzz: large random stores, every supported level must
// agree with scalar on random and structured probes alike.
TEST(FrozenCountUpToSlotTest, CrossLevelFuzzAgreesWithScalar) {
  util::Rng rng(47);
  TrackingForm form(30);
  for (graph::EdgeId e = 0; e < form.num_edges(); ++e) {
    for (bool forward : {true, false}) {
      if (rng.Bernoulli(0.2)) continue;
      size_t n = rng.UniformIndex(400);
      std::vector<double> ts(n);
      for (double& t : ts) {
        t = rng.Uniform(0.0, 1000.0);
        if (rng.Bernoulli(0.2)) t = std::floor(t);
      }
      std::sort(ts.begin(), ts.end());
      for (double t : ts) form.RecordTraversal(e, forward, t);
    }
  }
  FrozenTrackingForm frozen = form.Freeze();
  std::vector<SimdLevel> levels = SupportedLevels();
  for (int trial = 0; trial < 4000; ++trial) {
    size_t slot = rng.UniformIndex(2 * form.num_edges());
    double t = rng.Uniform(-50.0, 1050.0);
    size_t want;
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      want = frozen.CountUpToSlot(slot, t);
    }
    for (SimdLevel level : levels) {
      ScopedSimdLevel scoped(level);
      ASSERT_EQ(frozen.CountUpToSlot(slot, t), want)
          << "level=" << SimdLevelName(level) << " slot=" << slot
          << " t=" << t;
    }
  }
}

// ---- CRC-32C ----------------------------------------------------------------

// Bytes-at-a-time reference, straight from the reflected polynomial.
uint32_t BitwiseCrc32c(uint32_t state, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int k = 0; k < 8; ++k) {
      state = (state & 1) ? 0x82f63b78u ^ (state >> 1) : state >> 1;
    }
  }
  return state;
}

std::vector<uint8_t> RandomBytes(size_t n, util::Rng& rng) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  return bytes;
}

// Every length 0-64 at every start offset 0-7 (so the eight-byte steps see
// every alignment and every tail length), from several starting states:
// each level equals the bitwise reference.
TEST(Crc32cExtendTest, AllLevelsMatchReferenceAtEveryLengthAndOffset) {
  util::Rng rng(71);
  std::vector<uint8_t> buffer = RandomBytes(64 + 8, rng);
  for (uint32_t state : {0xffffffffu, 0u, 0x12345678u}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t n = 0; n <= 64; ++n) {
        const uint8_t* p = buffer.data() + offset;
        uint32_t want = BitwiseCrc32c(state, p, n);
        for (SimdLevel level : SupportedLevels()) {
          ASSERT_EQ(Crc32cExtendAt(level, state, p, n), want)
              << "level=" << SimdLevelName(level) << " offset=" << offset
              << " n=" << n;
        }
      }
    }
  }
}

// The register form equals the byte form over the same 17 bytes stored
// little-endian, at every level, and the dispatched entries follow the
// forced level.
TEST(Crc32cExtendTest, WordsEqualTheirStoredBytesAtEveryLevel) {
  util::Rng rng(73);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes = RandomBytes(17, rng);
    uint64_t lo;
    uint64_t hi;
    std::memcpy(&lo, bytes.data(), sizeof(lo));
    std::memcpy(&hi, bytes.data() + 8, sizeof(hi));
    uint32_t state = static_cast<uint32_t>(rng.UniformInt(0, 0xffffffffLL));
    uint32_t want = BitwiseCrc32c(state, bytes.data(), bytes.size());
    for (SimdLevel level : SupportedLevels()) {
      ASSERT_EQ(Crc32cExtendWordsAt(level, state, lo, hi, bytes[16]), want)
          << "level=" << SimdLevelName(level) << " trial=" << trial;
      ScopedSimdLevel scoped(level);
      ASSERT_TRUE(scoped.ok());
      ASSERT_EQ(Crc32cExtendWords(state, lo, hi, bytes[16]), want);
      ASSERT_EQ(Crc32cExtend(state, bytes.data(), bytes.size()), want);
    }
  }
}

}  // namespace
}  // namespace innet::util::simd
