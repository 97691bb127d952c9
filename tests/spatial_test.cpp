#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "spatial/grid_index.h"
#include "spatial/linear_scan.h"
#include "spatial/rtree.h"

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

/// A circle query covering the whole unit square: every stored item.
std::vector<int64_t> QueryUnitSquare(const SpatialIndex& index) {
  return index.CircleQuery({0.5, 0.5}, 0.75);
}

// ---------------------------------------------------------------------------
// LinearScan (the reference)
// ---------------------------------------------------------------------------

TEST(LinearScanTest, EmptyQueries) {
  LinearScan index;
  EXPECT_TRUE(index.CircleQuery({0.5, 0.5}, 10.0).empty());
  EXPECT_EQ(index.Size(), 0u);
}

TEST(LinearScanTest, BasicCircle) {
  LinearScan index;
  index.Insert({3, {0.5, 0.5}});
  index.Insert({2, {0.9, 0.9}});
  index.Insert({1, {0.1, 0.1}});
  // Ascending ids regardless of insertion order.
  const auto hits = index.CircleQuery({0.3, 0.3}, 0.3);
  EXPECT_EQ(hits, (std::vector<int64_t>{1, 3}));
}

TEST(LinearScanTest, CircleBoundaryInclusive) {
  LinearScan index;
  index.Insert({1, {0.5, 0.0}});
  const auto hits = index.CircleQuery({0.0, 0.0}, 0.5);
  EXPECT_EQ(hits, (std::vector<int64_t>{1}));
  EXPECT_TRUE(index.CircleQuery({0.0, 0.0}, 0.4999).empty());
}

// ---------------------------------------------------------------------------
// RTree structure
// ---------------------------------------------------------------------------

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(QueryUnitSquare(tree).empty());
  tree.CheckInvariants();
}

TEST(RTreeTest, InsertGrowsAndSplits) {
  RTree tree(/*max_entries=*/4, /*min_entries=*/2);
  for (int i = 0; i < 100; ++i) {
    const double x = (i % 10) / 10.0;
    const double y = (i / 10) / 10.0;
    tree.Insert({i, {x, y}});
    tree.CheckInvariants();
  }
  EXPECT_EQ(tree.Size(), 100u);
  EXPECT_GT(tree.Height(), 1);
  // Everything is in the unit square.
  EXPECT_EQ(QueryUnitSquare(tree).size(), 100u);
}

TEST(RTreeTest, BulkLoadPacksAllItems) {
  RTree tree;
  tree.Build(RandomItems(1000, 99));
  EXPECT_EQ(tree.Size(), 1000u);
  tree.CheckInvariants();
  EXPECT_EQ(QueryUnitSquare(tree).size(), 1000u);
}

TEST(RTreeTest, BuildReplacesContents) {
  RTree tree;
  tree.Build(RandomItems(50, 1));
  tree.Build(RandomItems(10, 2));
  EXPECT_EQ(tree.Size(), 10u);
}

TEST(RTreeTest, DuplicateLocationsSupported) {
  RTree tree(4, 2);
  for (int i = 0; i < 30; ++i) tree.Insert({i, {0.5, 0.5}});
  tree.CheckInvariants();
  EXPECT_EQ(tree.CircleQuery({0.5, 0.5}, 0.0).size(), 30u);
}

TEST(RTreeTest, MixedBuildAndInsert) {
  RTree tree;
  tree.Build(RandomItems(200, 3));
  Rng rng(4);
  for (int i = 200; i < 400; ++i) {
    tree.Insert({i, {rng.Uniform(), rng.Uniform()}});
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.Size(), 400u);
  EXPECT_EQ(QueryUnitSquare(tree).size(), 400u);
}

TEST(RTreeTest, DuplicateXCoordinateColumn) {
  // All points share x = 0.5: the STR x-sort cannot separate them; a
  // query centred on the column must still find everything.
  RTree tree(4, 2);
  std::vector<SpatialItem> items;
  for (int i = 0; i < 40; ++i) items.push_back({i, {0.5, i / 40.0}});
  tree.Build(items);
  tree.CheckInvariants();
  EXPECT_EQ(tree.CircleQuery({0.5, 0.5}, 0.5).size(), 40u);
  EXPECT_EQ(tree.CircleQuery({0.6, 0.5}, 0.05).size(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-implementation equivalence (property test over random data)
// ---------------------------------------------------------------------------

struct IndexCase {
  std::string name;
  int item_count;
  uint64_t seed;
  bool bulk_load;
};

class SpatialEquivalenceTest : public ::testing::TestWithParam<IndexCase> {};

TEST_P(SpatialEquivalenceTest, AllIndexesAgree) {
  const IndexCase& param = GetParam();
  const auto items = RandomItems(param.item_count, param.seed);

  LinearScan reference;
  reference.Build(items);
  GridIndex grid(16);
  RTree rtree(8, 3);
  if (param.bulk_load) {
    grid.Build(items);
    rtree.Build(items);
  } else {
    for (const auto& item : items) {
      grid.Insert(item);
      rtree.Insert(item);
    }
  }
  rtree.CheckInvariants();

  Rng rng(param.seed ^ 0xABCD);
  for (int q = 0; q < 50; ++q) {
    const Point center{rng.Uniform(), rng.Uniform()};
    const double radius = rng.Uniform(0.0, 0.5);
    const auto expected_circle = reference.CircleQuery(center, radius);
    EXPECT_EQ(grid.CircleQuery(center, radius), expected_circle);
    EXPECT_EQ(rtree.CircleQuery(center, radius), expected_circle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, SpatialEquivalenceTest,
    ::testing::Values(IndexCase{"tiny_bulk", 3, 11, true},
                      IndexCase{"tiny_insert", 3, 11, false},
                      IndexCase{"small_bulk", 40, 12, true},
                      IndexCase{"small_insert", 40, 13, false},
                      IndexCase{"medium_bulk", 500, 14, true},
                      IndexCase{"medium_insert", 500, 15, false},
                      IndexCase{"large_bulk", 3000, 16, true}),
    [](const ::testing::TestParamInfo<IndexCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Remove: mutation path vs. rebuild-from-live-set (fuzz)
// ---------------------------------------------------------------------------

TEST(RemoveTest, RemoveMissingReturnsFalse) {
  RTree rtree(4, 2);
  const SpatialItem item{7, {0.5, 0.5}};
  EXPECT_FALSE(rtree.Remove(item));
  rtree.Insert(item);
  // Same id at a different location is not a match.
  const SpatialItem elsewhere{7, {0.1, 0.1}};
  EXPECT_FALSE(rtree.Remove(elsewhere));
  EXPECT_TRUE(rtree.Remove(item));
  EXPECT_EQ(rtree.Size(), 0u);
}

// Interleaves inserts and removals on the R-tree (the only mutated index:
// the streaming plane's persistent task index) and checks each query
// against a LinearScan rebuilt from the live set — the invariant the
// plane's delta maintenance rests on.
TEST(RemoveTest, FuzzInterleavedMutationsMatchRebuild) {
  for (const uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    RTree rtree(6, 2);
    // Seed with a bulk load so the R-tree starts from an STR packing.
    std::vector<SpatialItem> live = RandomItems(100, seed ^ 0xF00);
    rtree.Build(live);
    int64_t next_id = 100;

    for (int step = 0; step < 400; ++step) {
      if (live.empty() || rng.Uniform() < 0.5) {
        const SpatialItem item{next_id++, {rng.Uniform(), rng.Uniform()}};
        live.push_back(item);
        rtree.Insert(item);
      } else {
        const size_t victim = std::min(
            static_cast<size_t>(rng.Uniform() *
                                static_cast<double>(live.size())),
            live.size() - 1);
        const SpatialItem item = live[victim];
        live[victim] = live.back();
        live.pop_back();
        EXPECT_TRUE(rtree.Remove(item));
      }
      ASSERT_EQ(rtree.Size(), live.size());

      if (step % 20 == 19) {
        rtree.CheckInvariants();
        LinearScan reference;
        reference.Build(live);
        EXPECT_EQ(QueryUnitSquare(rtree).size(), live.size());
        for (int q = 0; q < 3; ++q) {
          const Point center{rng.Uniform(), rng.Uniform()};
          const double radius = rng.Uniform(0.0, 0.4);
          EXPECT_EQ(rtree.CircleQuery(center, radius),
                    reference.CircleQuery(center, radius));
        }
      }
    }
  }
}

TEST(RemoveTest, RTreeTombstoneCounterTracksRemovalsAndResetsOnBuild) {
  RTree tree(4, 2);
  const auto items = RandomItems(64, 77);
  tree.Build(items);
  EXPECT_EQ(tree.removed_since_build(), 0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(tree.Remove(items[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(tree.removed_since_build(), 16);
  EXPECT_EQ(tree.Size(), 48u);
  tree.CheckInvariants();
  // Failed removals don't count.
  EXPECT_FALSE(tree.Remove(items[0]));
  EXPECT_EQ(tree.removed_since_build(), 16);
  // Rebuild resets the tombstone counter.
  tree.Build(
      std::vector<SpatialItem>(items.begin() + 16, items.end()));
  EXPECT_EQ(tree.removed_since_build(), 0);
  EXPECT_EQ(tree.Size(), 48u);
}

TEST(RemoveTest, RTreeDrainToEmptyAndRefill) {
  RTree tree(4, 2);
  auto items = RandomItems(50, 88);
  for (const auto& item : items) tree.Insert(item);
  for (const auto& item : items) EXPECT_TRUE(tree.Remove(item));
  EXPECT_EQ(tree.Size(), 0u);
  tree.CheckInvariants();
  EXPECT_TRUE(QueryUnitSquare(tree).empty());
  for (const auto& item : items) tree.Insert(item);
  tree.CheckInvariants();
  EXPECT_EQ(QueryUnitSquare(tree).size(), 50u);
}

// ---------------------------------------------------------------------------
// GridIndex specifics
// ---------------------------------------------------------------------------

TEST(GridIndexTest, OutOfRangePointsAreClamped) {
  GridIndex grid(8);
  grid.Insert({1, {-0.5, 2.0}});
  // Still findable by an exact circle query around its true location.
  EXPECT_EQ(grid.CircleQuery({-0.5, 2.0}, 0.01), (std::vector<int64_t>{1}));
  EXPECT_EQ(grid.Size(), 1u);
}

TEST(GridIndexTest, SingleCellGrid) {
  GridIndex grid(1);
  for (const auto& item : RandomItems(100, 21)) grid.Insert(item);
  EXPECT_EQ(QueryUnitSquare(grid).size(), 100u);
  EXPECT_EQ(grid.Size(), 100u);
}

}  // namespace
}  // namespace casc
