// SensorNetwork::JunctionsInRect and JunctionsInPolygon against brute
// force: every cell box is recomputed from FacesAroundNode exactly as the
// constructor computes it, and each is tested with Rect::Contains (plus the
// exact polygon test for polygons). Both front ends must equal that oracle
// at every dispatch level, on the perfbench rectangle distribution and on
// degenerate rectangles: sides on cell bounds and junction positions,
// zero-area, inverted, the whole domain, the domain inflated past the
// outer-face cells, ±inf and NaN coordinates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/framework.h"
#include "geometry/polygon.h"
#include "perfbench_rects.h"
#include "util/alloc_probe.h"
#include "util/rng.h"
#include "util/simd.h"

namespace innet::core {
namespace {

using geometry::Rect;
using util::simd::SimdLevel;

// The perfbench city's road network; its trips do not matter here.
FrameworkOptions CityOptions() {
  FrameworkOptions options;
  options.road.num_junctions = 2500;
  options.road.world_size = 30000.0;
  options.traffic.num_trajectories = 20;
  options.seed = 42;
  return options;
}

class JunctionLookupTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { framework_ = new Framework(CityOptions()); }
  static void TearDownTestSuite() {
    delete framework_;
    framework_ = nullptr;
  }

  JunctionLookupTest() : network_(framework_->network()) {
    const graph::PlanarGraph& mobility = network_.mobility();
    for (graph::NodeId j = 0; j < mobility.NumNodes(); ++j) {
      Rect box(mobility.Position(j).x, mobility.Position(j).y,
               mobility.Position(j).x, mobility.Position(j).y);
      for (graph::FaceId f : mobility.FacesAroundNode(j)) {
        box.ExpandToInclude(network_.sensing().Position(f));
      }
      cells_.push_back(box);
    }
  }

  std::vector<graph::NodeId> BruteRect(const Rect& rect) const {
    std::vector<graph::NodeId> out;
    for (graph::NodeId j = 0; j < cells_.size(); ++j) {
      if (rect.Contains(cells_[j])) out.push_back(j);
    }
    return out;
  }

  std::vector<graph::NodeId> BrutePolygon(
      const geometry::Polygon& region) const {
    std::vector<graph::NodeId> out;
    if (region.size() < 3) return out;
    for (graph::NodeId j = 0; j < cells_.size(); ++j) {
      if (region.Bounds().Contains(cells_[j]) &&
          geometry::PolygonContainsRect(region, cells_[j])) {
        out.push_back(j);
      }
    }
    return out;
  }

  // The rectangles every level is checked on.
  std::vector<Rect> Rectangles() const {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Rect domain = network_.DomainBounds();
    std::vector<Rect> rects = PerfbenchRects(domain, 1000, 3);
    rects.push_back(domain);
    rects.push_back(domain.Inflated(domain.Width()));  // Past the ext node.
    rects.push_back(Rect(-inf, -inf, inf, inf));
    rects.push_back(Rect(-inf, domain.min_y, domain.Center().x, inf));
    rects.push_back(Rect(nan, domain.min_y, domain.max_x, domain.max_y));
    rects.push_back(Rect(domain.min_x, domain.min_y, domain.max_x, nan));
    rects.push_back(Rect(nan, nan, nan, nan));
    rects.push_back(Rect(domain.max_x, domain.max_y, domain.min_x,
                         domain.min_y));  // Inverted.
    util::Rng rng(17);
    for (graph::NodeId j = 0; j < cells_.size(); j += 37) {
      const Rect& cell = cells_[j];
      geometry::Point p = network_.mobility().Position(j);
      // Sides exactly on the cell's bounds, then one ulp inside on each
      // side in turn (the cell drops out), then one ulp outside.
      rects.push_back(cell);
      rects.push_back(Rect(std::nextafter(cell.min_x, inf), cell.min_y,
                           cell.max_x, cell.max_y));
      rects.push_back(Rect(cell.min_x, cell.min_y,
                           std::nextafter(cell.max_x, -inf), cell.max_y));
      rects.push_back(Rect(cell.min_x, std::nextafter(cell.min_y, inf),
                           cell.max_x, cell.max_y));
      rects.push_back(Rect(cell.min_x, cell.min_y, cell.max_x,
                           std::nextafter(cell.max_y, -inf)));
      rects.push_back(Rect(std::nextafter(cell.min_x, -inf),
                           std::nextafter(cell.min_y, -inf),
                           std::nextafter(cell.max_x, inf),
                           std::nextafter(cell.max_y, inf)));
      // A cell's bounds on one side, a wide margin on the others.
      double margin = rng.Uniform(0.05, 0.3) * domain.Width();
      rects.push_back(Rect(cell.min_x, cell.min_y - margin,
                           cell.max_x + margin, cell.max_y + margin));
      // Corners at junction positions; zero-area rects on one.
      rects.push_back(Rect(p.x, p.y, p.x + margin, p.y + margin));
      rects.push_back(Rect(p.x - margin, p.y - margin, p.x, p.y));
      rects.push_back(Rect(p.x, p.y, p.x, p.y));
      rects.push_back(Rect(p.x, domain.min_y, p.x, domain.max_y));
      rects.push_back(Rect(p.x + margin, p.y + margin, p.x, p.y));
    }
    return rects;
  }

  std::vector<SimdLevel> Levels() const {
    std::vector<SimdLevel> levels = {SimdLevel::kScalar};
    if (util::simd::DetectedSimdLevel() != SimdLevel::kScalar) {
      levels.push_back(util::simd::DetectedSimdLevel());
    }
    return levels;
  }

  static Framework* framework_;
  const SensorNetwork& network_;
  std::vector<Rect> cells_;
};

Framework* JunctionLookupTest::framework_ = nullptr;

TEST_F(JunctionLookupTest, RectScanEqualsBruteForceAtEveryLevel) {
  const std::vector<Rect> rects = Rectangles();
  size_t nonempty = 0;
  for (SimdLevel level : Levels()) {
    util::simd::ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    std::vector<graph::NodeId> out;
    for (const Rect& rect : rects) {
      std::vector<graph::NodeId> want = BruteRect(rect);
      nonempty += want.empty() ? 0 : 1;
      ASSERT_EQ(network_.JunctionsInRect(rect), want)
          << util::simd::SimdLevelName(level) << " rect (" << rect.min_x
          << "," << rect.min_y << "," << rect.max_x << "," << rect.max_y
          << ")";
      network_.JunctionsInRect(rect, &out);
      ASSERT_EQ(out, want) << util::simd::SimdLevelName(level);
    }
  }
  // The set is not vacuous: most rects hold cells.
  EXPECT_GT(nonempty, rects.size() / 2);
}

TEST_F(JunctionLookupTest, DegenerateRectsHoldWhatContainsSays) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Rect domain = network_.DomainBounds();
  const size_t all = network_.mobility().NumNodes();
  // Outer-face cells reach the ext node's far-away position: only a rect
  // past it holds every cell.
  EXPECT_LT(network_.JunctionsInRect(domain).size(), all);
  EXPECT_EQ(network_.JunctionsInRect(domain.Inflated(domain.Width())).size(),
            all);
  EXPECT_EQ(network_.JunctionsInRect(Rect(-inf, -inf, inf, inf)).size(), all);
  EXPECT_TRUE(network_.JunctionsInRect(Rect(nan, nan, nan, nan)).empty());
  EXPECT_TRUE(network_.JunctionsInRect(Rect(-inf, -inf, inf, nan)).empty());
  EXPECT_TRUE(network_
                  .JunctionsInRect(Rect(domain.max_x, domain.max_y,
                                        domain.min_x, domain.min_y))
                  .empty());
  // A cell's own box holds it; shrinking any side by one ulp drops it.
  for (graph::NodeId j = 0; j < all; j += 101) {
    const Rect& cell = cells_[j];
    std::vector<graph::NodeId> on = network_.JunctionsInRect(cell);
    EXPECT_TRUE(std::binary_search(on.begin(), on.end(), j)) << j;
    std::vector<graph::NodeId> shrunk = network_.JunctionsInRect(
        Rect(cell.min_x, cell.min_y, std::nextafter(cell.max_x, -inf),
             cell.max_y));
    EXPECT_FALSE(std::binary_search(shrunk.begin(), shrunk.end(), j)) << j;
  }
}

TEST_F(JunctionLookupTest, PolygonScanEqualsBruteForceAtEveryLevel) {
  const Rect domain = network_.DomainBounds();
  std::vector<geometry::Polygon> regions;
  util::Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    geometry::Point center(rng.Uniform(domain.min_x, domain.max_x),
                           rng.Uniform(domain.min_y, domain.max_y));
    double rx = rng.Uniform(0.05, 0.3) * domain.Width();
    double ry = rng.Uniform(0.05, 0.3) * domain.Height();
    regions.push_back(geometry::ApproximateEllipse(center, rx, ry, 24));
  }
  // Concave: a U whose notch cuts through the middle of the domain.
  const double x0 = domain.min_x, x1 = domain.max_x;
  const double y0 = domain.min_y, y1 = domain.max_y;
  const double w = domain.Width(), h = domain.Height();
  regions.push_back(geometry::Polygon({{x0, y0},
                                       {x1, y0},
                                       {x1, y1},
                                       {x0 + 0.7 * w, y1},
                                       {x0 + 0.7 * w, y0 + 0.3 * h},
                                       {x0 + 0.3 * w, y0 + 0.3 * h},
                                       {x0 + 0.3 * w, y1},
                                       {x0, y1}}));
  regions.push_back(geometry::Polygon({{x0, y0}, {x1, y0}, {x0, y1}}));
  regions.push_back(geometry::Polygon({{x0, y0}, {x1, y1}}));  // < 3 sides.
  for (SimdLevel level : Levels()) {
    util::simd::ScopedSimdLevel scoped(level);
    ASSERT_TRUE(scoped.ok());
    for (size_t i = 0; i < regions.size(); ++i) {
      EXPECT_EQ(network_.JunctionsInPolygon(regions[i]),
                BrutePolygon(regions[i]))
          << util::simd::SimdLevelName(level) << " region " << i;
    }
  }
}

TEST_F(JunctionLookupTest, OutParameterWarmCallsDoNotAllocate) {
  const std::vector<Rect> rects = PerfbenchRects(network_.DomainBounds(), 200, 5);
  std::vector<graph::NodeId> out;
  for (const Rect& rect : rects) network_.JunctionsInRect(rect, &out);
  // Grown to the largest answer: no call allocates.
  util::AllocProbe probe;
  for (const Rect& rect : rects) network_.JunctionsInRect(rect, &out);
  EXPECT_EQ(probe.Delta(), 0u);
}

TEST_F(JunctionLookupTest, ReturningOverloadAllocatesOncePerCall) {
  const std::vector<Rect> rects = PerfbenchRects(network_.DomainBounds(), 200, 5);
  for (const Rect& rect : rects) network_.JunctionsInRect(rect);  // Warm.
  size_t nonempty = 0;
  util::AllocProbe probe;
  for (const Rect& rect : rects) {
    nonempty += network_.JunctionsInRect(rect).empty() ? 0 : 1;
  }
  EXPECT_EQ(probe.Delta(), nonempty);
  EXPECT_GT(nonempty, 0u);
}

}  // namespace
}  // namespace innet::core
