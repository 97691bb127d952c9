#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/reachability.h"
#include "spatial/grid_index.h"

namespace casc {
namespace {

std::vector<SpatialItem> RandomItems(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<SpatialItem> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    items.push_back(SpatialItem{i, {rng.Uniform(), rng.Uniform()}});
  }
  return items;
}

/// The brute-force reference: every item in the working area of
/// Definition 3 (InWorkingArea), in ascending id order.
std::vector<int64_t> LinearScan(const std::vector<SpatialItem>& items,
                                const Point& center, double radius) {
  std::vector<int64_t> out;
  for (const SpatialItem& item : items) {
    if (InWorkingArea(center, radius, item.location)) out.push_back(item.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

GridIndex BuildGrid(const std::vector<SpatialItem>& items) {
  GridIndex grid;
  grid.Build(items);
  return grid;
}

// ---------------------------------------------------------------------------
// Query semantics
// ---------------------------------------------------------------------------

TEST(GridIndexTest, EmptyIndexMatchesNothing) {
  const GridIndex grid = BuildGrid({});
  EXPECT_EQ(grid.Size(), 0u);
  EXPECT_TRUE(grid.CircleQuery({0.5, 0.5}, 10.0).empty());
}

TEST(GridIndexTest, AscendingIdsRegardlessOfInputOrder) {
  const GridIndex grid =
      BuildGrid({{3, {0.5, 0.5}}, {2, {0.9, 0.9}}, {1, {0.1, 0.1}}});
  EXPECT_EQ(grid.CircleQuery({0.3, 0.3}, 0.3), (std::vector<int64_t>{1, 3}));
}

TEST(GridIndexTest, CircleBoundaryInclusive) {
  const GridIndex grid = BuildGrid({{1, {0.5, 0.0}}});
  EXPECT_EQ(grid.CircleQuery({0.0, 0.0}, 0.5), (std::vector<int64_t>{1}));
  EXPECT_TRUE(grid.CircleQuery({0.0, 0.0}, 0.4999).empty());
}

TEST(GridIndexTest, NegativeRadiusMatchesNothing) {
  const GridIndex grid = BuildGrid({{1, {0.5, 0.5}}});
  EXPECT_TRUE(grid.CircleQuery({0.5, 0.5}, -1.0).empty());
}

TEST(GridIndexTest, DuplicateLocationsAndIds) {
  std::vector<SpatialItem> items;
  for (int i = 0; i < 30; ++i) items.push_back({i % 20, {0.5, 0.5}});
  const GridIndex grid = BuildGrid(items);
  EXPECT_EQ(grid.CircleQuery({0.5, 0.5}, 0.0),
            LinearScan(items, {0.5, 0.5}, 0.0));
  EXPECT_EQ(grid.CircleQuery({0.5, 0.5}, 0.0).size(), 30u);
}

TEST(GridIndexTest, BuildReplacesContents) {
  GridIndex grid;
  grid.Build(RandomItems(500, 1));
  grid.Build(RandomItems(10, 2));
  EXPECT_EQ(grid.Size(), 10u);
  EXPECT_EQ(grid.CircleQuery({0.5, 0.5}, 0.75).size(), 10u);
}

// ---------------------------------------------------------------------------
// Self-sizing
// ---------------------------------------------------------------------------

TEST(GridIndexTest, SizesItselfFromTheItemCount) {
  struct Case {
    int items;
    int cells;
  };
  for (const Case c : {Case{0, 1}, Case{1, 1}, Case{15, 1}, Case{16, 8},
                       Case{80, 8}, Case{100, 10}, Case{4095, 63},
                       Case{4096, 64}, Case{5000, 64}}) {
    const GridIndex grid = BuildGrid(RandomItems(c.items, 7));
    EXPECT_EQ(grid.cells_x(), c.cells) << c.items << " items";
    EXPECT_EQ(grid.cells_y(), c.cells) << c.items << " items";
  }
}

TEST(GridIndexTest, ZeroWidthAxisGetsOneCell) {
  // All points share x = 0.5: the x axis has no width to split.
  std::vector<SpatialItem> items;
  for (int i = 0; i < 40; ++i) items.push_back({i, {0.5, i / 40.0}});
  const GridIndex grid = BuildGrid(items);
  EXPECT_EQ(grid.cells_x(), 1);
  EXPECT_EQ(grid.cells_y(), 8);
  EXPECT_EQ(grid.CircleQuery({0.5, 0.5}, 0.5).size(), 40u);
  EXPECT_TRUE(grid.CircleQuery({0.6, 0.5}, 0.05).empty());
}

// ---------------------------------------------------------------------------
// Grid vs. brute force (property test over random data)
// ---------------------------------------------------------------------------

struct GridCase {
  std::string name;
  int item_count;
  uint64_t seed;
  double scale;   ///< coordinates (and query radii) multiplied by this
  double offset;  ///< then shifted by this
  bool skewed;    ///< 80% of the items in a tight cluster
};

class GridEquivalenceTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(GridEquivalenceTest, MatchesLinearScan) {
  const GridCase& param = GetParam();
  Rng rng(param.seed);
  std::vector<SpatialItem> items;
  for (int i = 0; i < param.item_count; ++i) {
    Point p{rng.Uniform(), rng.Uniform()};
    if (param.skewed && rng.Uniform() < 0.8) {
      p = {0.3 + 0.05 * rng.Uniform(), 0.6 + 0.05 * rng.Uniform()};
    }
    items.push_back(SpatialItem{i,
                                {p.x * param.scale + param.offset,
                                 p.y * param.scale + param.offset}});
  }
  const GridIndex grid = BuildGrid(items);
  std::vector<int64_t> got;
  for (int q = 0; q < 60; ++q) {
    // Centers range past the items' box on every side, so edge-cell
    // clamping is exercised too.
    const Point center{rng.Uniform(-0.5, 1.5) * param.scale + param.offset,
                       rng.Uniform(-0.5, 1.5) * param.scale + param.offset};
    const double radius = rng.Uniform(0.0, 0.5) * param.scale;
    grid.CircleQueryInto(center, radius, &got);
    EXPECT_EQ(got, LinearScan(items, center, radius)) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, GridEquivalenceTest,
    ::testing::Values(GridCase{"tiny", 3, 11, 1.0, 0.0, false},
                      GridCase{"one_cell", 15, 12, 1.0, 0.0, false},
                      GridCase{"smallest_grid", 16, 13, 1.0, 0.0, false},
                      GridCase{"medium", 500, 14, 1.0, 0.0, false},
                      GridCase{"large", 3000, 15, 1.0, 0.0, false},
                      GridCase{"capped", 5000, 16, 1.0, 0.0, false},
                      GridCase{"skewed", 2000, 17, 1.0, 0.0, true},
                      GridCase{"scaled_negative", 2000, 18, 1000.0, -5000.0,
                               false}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Extreme coordinates: every cell lookup clamps in double before the cast
// to int, so none of these is undefined behaviour.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(GridIndexTest, HugeCoordinatesClampIntoEdgeCells) {
  std::vector<SpatialItem> items = RandomItems(30, 31);
  items.push_back({100, {1e300, 0.5}});
  items.push_back({101, {-1e300, 0.5}});
  items.push_back({102, {0.5, 1e300}});
  items.push_back({103, {0.5, -1e300}});
  const GridIndex grid = BuildGrid(items);
  ASSERT_GT(grid.cells_x(), 1);
  for (const Point center : {Point{1e300, 0.5}, Point{-1e300, 0.5},
                             Point{0.5, 1e300}, Point{0.5, -1e300},
                             Point{0.5, 0.5}, Point{1e300, -1e300}}) {
    for (const double radius : {0.0, 0.25, 1e150, kInf}) {
      EXPECT_EQ(grid.CircleQuery(center, radius),
                LinearScan(items, center, radius))
          << center.x << "," << center.y << " r=" << radius;
    }
  }

  // An index over the unit square queried at huge coordinates.
  const std::vector<SpatialItem> unit = RandomItems(100, 32);
  const GridIndex unit_grid = BuildGrid(unit);
  for (const Point center : {Point{1e300, 0.5}, Point{-1e300, -1e300}}) {
    EXPECT_EQ(unit_grid.CircleQuery(center, 1.0),
              LinearScan(unit, center, 1.0));
    EXPECT_EQ(unit_grid.CircleQuery(center, 1e301),
              LinearScan(unit, center, 1e301));
  }
}

TEST(GridIndexTest, InfiniteWidthBoxStaysExact) {
  // max - min overflows to inf on both axes, so every offset from the
  // origin times the axis scale can be inf * 0 = NaN.
  const double big = std::numeric_limits<double>::max();
  std::vector<SpatialItem> items = RandomItems(30, 33);
  items.push_back({100, {big, big}});
  items.push_back({101, {-big, -big}});
  const GridIndex grid = BuildGrid(items);
  for (const Point center :
       {Point{big, big}, Point{-big, -big}, Point{0.5, 0.5}}) {
    for (const double radius : {0.0, 0.25, 1.0}) {
      EXPECT_EQ(grid.CircleQuery(center, radius),
                LinearScan(items, center, radius))
          << center.x << " r=" << radius;
    }
  }
  EXPECT_EQ(grid.CircleQuery({0.5, 0.5}, kInf).size(), items.size());
  EXPECT_TRUE(grid.CircleQuery({kInf, 0.5}, 1.0).empty());
}

}  // namespace
}  // namespace casc
