// Unit tests for geometry: points, rects, and the grid spatial index.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geom/grid_index.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qip {
namespace {

TEST(Point, DistanceBasics) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(length({6, 8}), 10.0);
}

TEST(Point, DirectionIsUnit) {
  const Point d = direction({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(d.x, 1.0);
  EXPECT_DOUBLE_EQ(d.y, 0.0);
  const Point zero = direction({2, 2}, {2, 2});
  EXPECT_DOUBLE_EQ(length(zero), 0.0);
}

TEST(Point, AdvanceClampsAtTarget) {
  const Point from{0, 0}, to{3, 4};
  EXPECT_EQ(advance(from, to, 100.0), to);
  const Point mid = advance(from, to, 2.5);
  EXPECT_NEAR(distance(from, mid), 2.5, 1e-12);
  EXPECT_NEAR(distance(mid, to), 2.5, 1e-12);
}

TEST(Rect, ContainsAndClamp) {
  Rect r{100.0, 50.0};
  EXPECT_TRUE(r.contains({0, 0}));
  EXPECT_TRUE(r.contains({100, 50}));
  EXPECT_FALSE(r.contains({100.1, 10}));
  EXPECT_FALSE(r.contains({-0.1, 10}));
  const Point c = r.clamp({200, -5});
  EXPECT_DOUBLE_EQ(c.x, 100.0);
  EXPECT_DOUBLE_EQ(c.y, 0.0);
}

TEST(Rect, SampleInside) {
  Rect r{1000.0, 1000.0};
  Rng rng(3);
  for (int i = 0; i < 500; ++i) EXPECT_TRUE(r.contains(r.sample(rng)));
}

// ---------------------------------------------------------------------------
// GridIndex
// ---------------------------------------------------------------------------

TEST(GridIndex, InsertQueryRemove) {
  GridIndex idx(100.0);
  idx.insert(1, {10, 10});
  idx.insert(2, {50, 10});
  idx.insert(3, {500, 500});
  auto near = idx.query({0, 0}, 100.0);
  std::sort(near.begin(), near.end());
  EXPECT_EQ(near, (std::vector<std::uint32_t>{1, 2}));
  idx.remove(2);
  near = idx.query({0, 0}, 100.0);
  EXPECT_EQ(near, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(idx.size(), 2u);
}

TEST(GridIndex, RadiusIsInclusive) {
  GridIndex idx(100.0);
  idx.insert(1, {100, 0});
  EXPECT_EQ(idx.query({0, 0}, 100.0).size(), 1u);
  EXPECT_EQ(idx.query({0, 0}, 99.999).size(), 0u);
}

TEST(GridIndex, ExcludeParameter) {
  GridIndex idx(100.0);
  idx.insert(7, {0, 0});
  idx.insert(8, {1, 1});
  auto out = idx.query({0, 0}, 50.0, 7);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{8}));
}

TEST(GridIndex, MoveAcrossCells) {
  GridIndex idx(100.0);
  idx.insert(1, {10, 10});
  idx.move(1, {950, 950});
  EXPECT_TRUE(idx.query({0, 0}, 100.0).empty());
  EXPECT_EQ(idx.query({949, 949}, 10.0).size(), 1u);
  EXPECT_DOUBLE_EQ(idx.position(1).x, 950.0);
}

TEST(GridIndex, BoundaryDistanceIsInclusive) {
  // The unit-disk model counts d == radius as connected.  QIP's head
  // separation (heads >= 2 hops apart) and every connectivity figure depend
  // on this boundary: two nodes exactly one transmission range apart must
  // be neighbors, and epsilon beyond must not.
  GridIndex idx(150.0);
  idx.insert(1, {0, 0});
  idx.insert(2, {150.0, 0});          // exactly on the boundary
  idx.insert(3, {0, 150.0000001});    // epsilon beyond
  auto out = idx.query({0, 0}, 150.0, 1);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2}));
  // Both directions agree: the relation is symmetric on the boundary.
  EXPECT_EQ(idx.query({150.0, 0}, 150.0, 2),
            (std::vector<std::uint32_t>{1}));
}

TEST(GridIndex, EpochBumpsOnEveryMutation) {
  GridIndex idx(100.0);
  EXPECT_EQ(idx.epoch(), 0u);
  idx.insert(1, {10, 10});
  const auto e1 = idx.epoch();
  EXPECT_GT(e1, 0u);
  idx.move(1, {12, 12});  // same cell: still a mutation
  const auto e2 = idx.epoch();
  EXPECT_GT(e2, e1);
  idx.move(1, {500, 500});  // cross-cell
  const auto e3 = idx.epoch();
  EXPECT_GT(e3, e2);
  idx.remove(1);
  EXPECT_GT(idx.epoch(), e3);
}

TEST(GridIndex, QueryRadiusLargerThanCell) {
  GridIndex idx(50.0);
  idx.insert(1, {400, 0});
  EXPECT_EQ(idx.query({0, 0}, 500.0).size(), 1u);
}

TEST(GridIndex, DuplicateInsertThrows) {
  GridIndex idx(10.0);
  idx.insert(1, {0, 0});
  EXPECT_THROW(idx.insert(1, {5, 5}), InvariantViolation);
}

TEST(GridIndex, MissingIdThrows) {
  GridIndex idx(10.0);
  EXPECT_THROW(idx.remove(42), InvariantViolation);
  EXPECT_THROW(idx.move(42, {0, 0}), InvariantViolation);
  EXPECT_THROW((void)idx.position(42), InvariantViolation);
}

/// Property: grid query matches brute force over random configurations.
class GridIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridIndexProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  GridIndex idx(150.0);
  std::vector<std::pair<std::uint32_t, Point>> pts;
  Rect area{1000.0, 1000.0};
  for (std::uint32_t i = 0; i < 120; ++i) {
    const Point p = area.sample(rng);
    idx.insert(i, p);
    pts.emplace_back(i, p);
  }
  // Random moves and removals.
  for (int i = 0; i < 40; ++i) {
    const std::size_t k = rng.index(pts.size());
    if (rng.chance(0.3)) {
      idx.remove(pts[k].first);
      pts.erase(pts.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const Point p = area.sample(rng);
      idx.move(pts[k].first, p);
      pts[k].second = p;
    }
  }
  for (int q = 0; q < 25; ++q) {
    const Point c = area.sample(rng);
    const double r = rng.uniform(10.0, 400.0);
    auto got = idx.query(c, r);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> expect;
    for (const auto& [id, p] : pts) {
      if (distance_sq(p, c) <= r * r) expect.push_back(id);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect) << "query center (" << c.x << "," << c.y
                           << ") radius " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace qip
