#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "spatial/grid.h"
#include "spatial/kdtree.h"
#include "spatial/quadtree.h"
#include "util/rng.h"

namespace innet::spatial {
namespace {

using geometry::Point;
using geometry::Rect;

std::vector<Point> RandomPoints(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.emplace_back(rng.Uniform(0, 100), rng.Uniform(0, 100));
  }
  return points;
}

std::vector<size_t> BruteRange(const std::vector<Point>& points,
                               const Rect& range) {
  std::vector<size_t> out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (range.Contains(points[i])) out.push_back(i);
  }
  return out;
}

std::vector<size_t> BruteKnn(const std::vector<Point>& points, const Point& q,
                             size_t k) {
  std::vector<size_t> idx(points.size());
  for (size_t i = 0; i < points.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return geometry::DistanceSquared(points[a], q) <
           geometry::DistanceSquared(points[b], q);
  });
  idx.resize(std::min(k, idx.size()));
  return idx;
}

class IndexProperty : public ::testing::TestWithParam<int> {};

TEST_P(IndexProperty, KdTreeRangeMatchesBruteForce) {
  std::vector<Point> points = RandomPoints(400, GetParam());
  KdTree tree(points, 8);
  util::Rng rng(GetParam() + 1000);
  for (int i = 0; i < 50; ++i) {
    Point a(rng.Uniform(0, 100), rng.Uniform(0, 100));
    Point b(rng.Uniform(0, 100), rng.Uniform(0, 100));
    Rect range = Rect::FromCorners(a, b);
    std::vector<size_t> got = tree.RangeQuery(range);
    std::vector<size_t> want = BruteRange(points, range);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST_P(IndexProperty, QuadTreeRangeMatchesBruteForce) {
  std::vector<Point> points = RandomPoints(400, GetParam());
  QuadTree tree(points, 8);
  util::Rng rng(GetParam() + 2000);
  for (int i = 0; i < 50; ++i) {
    Point a(rng.Uniform(0, 100), rng.Uniform(0, 100));
    Point b(rng.Uniform(0, 100), rng.Uniform(0, 100));
    Rect range = Rect::FromCorners(a, b);
    std::vector<size_t> got = tree.RangeQuery(range);
    std::vector<size_t> want = BruteRange(points, range);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST_P(IndexProperty, KnnMatchesBruteForce) {
  std::vector<Point> points = RandomPoints(300, GetParam());
  KdTree tree(points, 4);
  util::Rng rng(GetParam() + 3000);
  for (int i = 0; i < 30; ++i) {
    Point q(rng.Uniform(-10, 110), rng.Uniform(-10, 110));
    for (size_t k : {size_t{1}, size_t{5}, size_t{17}}) {
      std::vector<size_t> got = tree.KNearest(q, k);
      std::vector<size_t> want = BruteKnn(points, q, k);
      ASSERT_EQ(got.size(), want.size());
      // Distances must match (indices can differ on exact ties).
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_DOUBLE_EQ(geometry::DistanceSquared(points[got[j]], q),
                         geometry::DistanceSquared(points[want[j]], q));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexProperty, ::testing::Values(1, 2, 3));

TEST(KdTreeTest, EmptyAndSingle) {
  KdTree empty(std::vector<Point>{});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.RangeQuery(Rect(0, 0, 1, 1)).empty());
  EXPECT_TRUE(empty.KNearest(Point(0, 0), 3).empty());

  KdTree single({Point(5, 5)});
  EXPECT_EQ(single.NearestNeighbor(Point(0, 0)), 0u);
  EXPECT_EQ(single.RangeQuery(Rect(0, 0, 10, 10)).size(), 1u);
}

TEST(KdTreeTest, LeafPartitionsCoverAllPoints) {
  std::vector<Point> points = RandomPoints(200, 9);
  KdTree tree(points, 10);
  std::vector<std::vector<size_t>> cells = tree.LeafPartitions();
  std::set<size_t> seen;
  for (const auto& cell : cells) {
    EXPECT_LE(cell.size(), 10u);
    for (size_t idx : cell) EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(seen.size(), points.size());
}

TEST(KdTreeTest, PartitionIntoCellsCountAndCover) {
  std::vector<Point> points = RandomPoints(200, 10);
  for (size_t target : {size_t{1}, size_t{7}, size_t{50}, size_t{200}}) {
    std::vector<std::vector<size_t>> cells =
        KdTree::PartitionIntoCells(points, target);
    EXPECT_GE(cells.size(), std::min(target, points.size()));
    std::set<size_t> seen;
    for (const auto& cell : cells) {
      EXPECT_FALSE(cell.empty());
      for (size_t idx : cell) EXPECT_TRUE(seen.insert(idx).second);
    }
    EXPECT_EQ(seen.size(), points.size());
  }
}

TEST(QuadTreeTest, PartitionIntoCellsCountAndCover) {
  std::vector<Point> points = RandomPoints(200, 11);
  for (size_t target : {size_t{1}, size_t{9}, size_t{60}}) {
    std::vector<std::vector<size_t>> cells =
        QuadTree::PartitionIntoCells(points, target);
    EXPECT_GE(cells.size(), std::min(target, points.size() / 2));
    std::set<size_t> seen;
    for (const auto& cell : cells) {
      EXPECT_FALSE(cell.empty());
      for (size_t idx : cell) EXPECT_TRUE(seen.insert(idx).second);
    }
    EXPECT_EQ(seen.size(), points.size());
  }
}

TEST(QuadTreeTest, LeafPartitionsDisjointCover) {
  std::vector<Point> points = RandomPoints(300, 12);
  QuadTree tree(points, 16);
  std::set<size_t> seen;
  for (const auto& leaf : tree.LeafPartitions()) {
    for (size_t idx : leaf.indices) {
      EXPECT_TRUE(seen.insert(idx).second);
      EXPECT_TRUE(leaf.bounds.Contains(points[idx]));
    }
  }
  EXPECT_EQ(seen.size(), points.size());
}

TEST(QuadTreeTest, HandlesDuplicatePoints) {
  std::vector<Point> points(50, Point(1, 1));
  points.emplace_back(2, 2);
  QuadTree tree(points, 4, /*max_depth=*/16);
  EXPECT_EQ(tree.RangeQuery(Rect(0, 0, 1.5, 1.5)).size(), 50u);
}

TEST(GridTest, CellAssignment) {
  std::vector<Point> points = {{0.5, 0.5}, {9.5, 9.5}, {5.0, 0.5}};
  UniformGrid grid(Rect(0, 0, 10, 10), 2, 2, points);
  EXPECT_EQ(grid.num_cells(), 4u);
  EXPECT_EQ(grid.CellOf(Point(0.5, 0.5)), 0u);
  EXPECT_EQ(grid.CellOf(Point(9.5, 9.5)), 3u);
  EXPECT_EQ(grid.PointsInCell(0).size(), 1u);
  EXPECT_EQ(grid.PointsInCell(3).size(), 1u);
  // Out-of-bounds points clamp to border cells.
  EXPECT_EQ(grid.CellOf(Point(-5, -5)), 0u);
  EXPECT_EQ(grid.CellOf(Point(15, 15)), 3u);
}

TEST(GridTest, CellGeometry) {
  std::vector<Point> none;
  UniformGrid grid(Rect(0, 0, 10, 4), 5, 2, none);
  Rect cell = grid.CellBounds(0);
  EXPECT_DOUBLE_EQ(cell.Width(), 2.0);
  EXPECT_DOUBLE_EQ(cell.Height(), 2.0);
  Point center = grid.CellCenter(0);
  EXPECT_DOUBLE_EQ(center.x, 1.0);
  EXPECT_DOUBLE_EQ(center.y, 1.0);
  // Centers lie inside their own cells.
  for (size_t c = 0; c < grid.num_cells(); ++c) {
    EXPECT_TRUE(grid.CellBounds(c).Contains(grid.CellCenter(c)));
  }
}

}  // namespace
}  // namespace innet::spatial
