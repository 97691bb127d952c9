#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/synthetic.h"
#include "kernel/affinity_kernels.h"
#include "kernel/coop_tile.h"
#include "model/batch_workspace.h"
#include "model/cooperation_matrix.h"
#include "model/score_keeper.h"

namespace casc {
namespace {

/// The canonical reduction order, spelled out independently of the
/// kernels: value j lands in lane j % 4 (ascending j), and the lanes
/// combine as (l0 + l2) + (l1 + l3). `value(j)` yields the j-th element
/// already widened to double.
template <typename Value>
double CanonicalLaneSum(int count, Value value) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (int j = 0; j < count; ++j) lanes[j % 4] += value(j);
  return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
}

double ReferenceRowSum(const std::vector<double>& row,
                       const std::vector<int>& idx) {
  return CanonicalLaneSum(static_cast<int>(idx.size()), [&](int j) {
    return row[static_cast<size_t>(idx[static_cast<size_t>(j)])];
  });
}

std::vector<int> RandomIndices(int count, size_t range, Rng* rng) {
  std::vector<int> idx;
  for (int j = 0; j < count; ++j) {
    idx.push_back(static_cast<int>(rng->UniformInt(range)));
  }
  return idx;
}

CooperationMatrix RandomDenseMatrix(int m, uint64_t seed) {
  Rng rng(seed);
  CooperationMatrix coop(m, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      if (i == k) continue;
      coop.SetQuality(i, k, rng.Uniform());
    }
  }
  return coop;
}

Instance RandomInstance(int workers, int tasks, uint64_t seed,
                        int capacity = 4, int min_group = 3) {
  Rng rng(seed);
  SyntheticInstanceConfig config;
  config.num_workers = workers;
  config.num_tasks = tasks;
  config.task.capacity = capacity;
  config.min_group_size = min_group;
  config.worker.radius_min = 0.25;
  config.worker.radius_max = 0.50;
  config.worker.speed_min = 0.05;
  config.worker.speed_max = 0.15;
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

/// Greedily fills a feasible assignment: each worker joins its first
/// valid task still below capacity.
Assignment GreedyAssignment(const Instance& instance) {
  Assignment assignment(instance);
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    for (const TaskIndex t : instance.ValidTasks(w)) {
      const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
      if (assignment.GroupSize(t) < capacity) {
        assignment.Assign(w, t);
        break;
      }
    }
  }
  return assignment;
}

// ---------------------------------------------------------------------------
// Raw kernels: bit-identical to the spelled-out canonical reference.
// ---------------------------------------------------------------------------

TEST(AffinityKernelsTest, RowSumMatchesCanonicalReference) {
  Rng rng(11);
  std::vector<double> row(64);
  for (double& v : row) v = rng.Uniform();
  for (int count = 0; count <= 33; ++count) {
    const std::vector<int> idx = RandomIndices(count, row.size(), &rng);
    EXPECT_EQ(RowSumKernel(row.data(), idx.data(), count),
              ReferenceRowSum(row, idx))
        << "count=" << count;
  }
}

TEST(AffinityKernelsTest, PairSumMatchesCanonicalReference) {
  Rng rng(12);
  constexpr int kWorkers = 24;
  constexpr int64_t kStride = 24;
  std::vector<double> tile(kWorkers * kStride, 0.0);
  for (int i = 0; i < kWorkers; ++i) {
    for (int k = 0; k < kWorkers; ++k) {
      if (i != k) tile[i * kStride + k] = rng.Uniform();
    }
  }
  for (int count = 0; count <= 12; ++count) {
    const std::vector<int> idx = RandomIndices(count, kWorkers, &rng);
    // Outer index ascending; each suffix reduced in canonical lane order.
    double reference = 0.0;
    for (int a = 0; a + 1 < count; ++a) {
      const int64_t base = idx[static_cast<size_t>(a)] * kStride;
      reference += CanonicalLaneSum(count - a - 1, [&](int j) {
        return tile[static_cast<size_t>(
            base + idx[static_cast<size_t>(a + 1 + j)])];
      });
    }
    EXPECT_EQ(PairSumKernel(tile.data(), kStride, idx.data(), count),
              reference)
        << "count=" << count;
  }
}

TEST(AffinityKernelsTest, RowSumManyMatchesCanonicalReference) {
  Rng rng(13);
  std::vector<double> row(48);
  for (double& v : row) v = rng.Uniform();
  std::vector<std::vector<int>> groups;
  for (int g = 0; g < 9; ++g) {
    groups.push_back(RandomIndices(g, row.size(), &rng));
  }
  std::vector<const int*> ptrs;
  std::vector<int> lens;
  for (const auto& group : groups) {
    ptrs.push_back(group.data());
    lens.push_back(static_cast<int>(group.size()));
  }
  std::vector<double> out(groups.size(), -1.0);
  RowSumMany(row.data(), ptrs.data(), lens.data(),
             static_cast<int>(groups.size()), out.data());
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(out[g], ReferenceRowSum(row, groups[g])) << "group=" << g;
  }
}

TEST(AffinityKernelsTest, RowSumFloatUpMatchesCanonicalReference) {
  Rng rng(14);
  std::vector<float> row(64);
  for (float& v : row) v = FloatUp(rng.Uniform());
  for (int count = 0; count <= 21; ++count) {
    const std::vector<int> idx = RandomIndices(count, row.size(), &rng);
    const double reference = CanonicalLaneSum(count, [&](int j) {
      return static_cast<double>(
          row[static_cast<size_t>(idx[static_cast<size_t>(j)])]);
    });
    EXPECT_EQ(RowSumFloatUp(row.data(), idx.data(), count), reference)
        << "count=" << count;
  }
}

TEST(AffinityKernelsTest, FloatUpNeverBelowSource) {
  Rng rng(15);
  for (int trial = 0; trial < 10000; ++trial) {
    const double d = rng.Uniform() * 2.0;
    const float f = FloatUp(d);
    EXPECT_GE(static_cast<double>(f), d);
  }
  EXPECT_EQ(FloatUp(0.0), 0.0f);
  EXPECT_EQ(FloatUp(1.0), 1.0f);
  EXPECT_EQ(FloatUp(2.0), 2.0f);
}

// ---------------------------------------------------------------------------
// CoopTile planes
// ---------------------------------------------------------------------------

void ExpectTileMatches(const CooperationMatrix& coop, const CoopTile& tile) {
  const int m = coop.num_workers();
  ASSERT_TRUE(tile.built());
  ASSERT_EQ(tile.num_workers(), m);
  EXPECT_EQ(tile.source_identity(), coop.IdentityHash());
  EXPECT_EQ(tile.stride() % 8, 0);
  EXPECT_GE(tile.stride(), m);
  for (int i = 0; i < m; ++i) {
    const double* pair = tile.PairRow(i);
    const float* bound = tile.BoundRow(i);
    for (int k = 0; k < m; ++k) {
      const double exact =
          i == k ? 0.0 : coop.Quality(i, k) + coop.Quality(k, i);
      EXPECT_EQ(pair[k], exact) << "i=" << i << " k=" << k;
      EXPECT_GE(static_cast<double>(bound[k]), exact);
      // Row-max ticks dominate every pair bound in the row.
      EXPECT_GE(std::ldexp(static_cast<double>(tile.PrmTicks(i)), -32),
                static_cast<double>(bound[k]));
    }
    // Stride padding must stay zero so blind kernel reads are harmless.
    for (int64_t k = m; k < tile.stride(); ++k) {
      EXPECT_EQ(pair[k], 0.0);
    }
  }
}

TEST(CoopTileTest, DenseMatrixPlanes) {
  const CooperationMatrix coop = RandomDenseMatrix(20, 21);
  CoopTile tile;
  ASSERT_TRUE(tile.BuildFrom(coop, 2048));
  ExpectTileMatches(coop, tile);
}

TEST(CoopTileTest, ViewMatrixPlanes) {
  const CooperationMatrix base = RandomDenseMatrix(24, 22);
  const CooperationMatrix view = base.View({7, 3, 19, 0, 11, 23, 5});
  CoopTile tile;
  ASSERT_TRUE(tile.BuildFrom(view, 2048));
  ExpectTileMatches(view, tile);
}

TEST(CoopTileTest, ProceduralMatrixPlanes) {
  const CooperationMatrix coop = CooperationMatrix::Procedural(30, 99);
  CoopTile tile;
  ASSERT_TRUE(tile.BuildFrom(coop, 2048));
  ExpectTileMatches(coop, tile);
}

TEST(CoopTileTest, WorkerCeilingGatesBuild) {
  const CooperationMatrix coop = RandomDenseMatrix(16, 23);
  CoopTile tile;
  ASSERT_TRUE(tile.BuildFrom(coop, 16));
  EXPECT_TRUE(tile.built());
  EXPECT_FALSE(tile.BuildFrom(coop, 15));
  EXPECT_FALSE(tile.built());
}

TEST(CoopTileTest, IdentityHashTracksMutation) {
  CooperationMatrix coop = RandomDenseMatrix(12, 24);
  const uint64_t before = coop.IdentityHash();
  EXPECT_EQ(coop.IdentityHash(), before) << "hash must be stable";
  coop.SetQuality(3, 4, 0.123);
  EXPECT_NE(coop.IdentityHash(), before);
  const CooperationMatrix view = coop.View({0, 1, 2});
  EXPECT_NE(view.IdentityHash(), coop.IdentityHash());
}

// ---------------------------------------------------------------------------
// ScoreKeeper: tile path == matrix path, bit for bit.
// ---------------------------------------------------------------------------

TEST(ScoreKeeperTileTest, TileParityOnRandomInstances) {
  for (const uint64_t seed : {1ull, 2ull, 3ull}) {
    const Instance instance = RandomInstance(60, 20, seed);
    const Assignment assignment = GreedyAssignment(instance);
    const ScoreKeeper plain(instance, assignment);

    CoopTile tile;
    ASSERT_TRUE(tile.BuildFrom(instance.coop(), 2048));

    ScoreKeeper tiled(instance);
    tiled.AttachTile(&tile);
    tiled.Sync(assignment);
    EXPECT_EQ(tiled.TotalScore(), plain.TotalScore());
    for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
      EXPECT_EQ(tiled.TaskScore(t), plain.TaskScore(t));
      EXPECT_EQ(tiled.TaskPairSum(t), plain.TaskPairSum(t));
    }
    for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
      std::vector<TaskIndex> candidates;
      for (const TaskIndex t : instance.ValidTasks(w)) {
        const int capacity =
            instance.tasks()[static_cast<size_t>(t)].capacity;
        if (assignment.TaskOf(w) == t) continue;
        if (assignment.GroupSize(t) >= capacity) continue;
        candidates.push_back(t);
        EXPECT_EQ(tiled.GainIfJoined(w, t), plain.GainIfJoined(w, t))
            << "w=" << w << " t=" << t;
      }
      if (!candidates.empty()) {
        std::vector<double> batched(candidates.size(), -1.0);
        tiled.GainsIfJoined(w, candidates, batched.data());
        for (size_t i = 0; i < candidates.size(); ++i) {
          EXPECT_EQ(batched[i], plain.GainIfJoined(w, candidates[i]));
        }
      }
      const TaskIndex current = assignment.TaskOf(w);
      if (current != kNoTask) {
        EXPECT_EQ(tiled.LossIfLeft(w, current),
                  plain.LossIfLeft(w, current));
      }
    }
  }
}

TEST(ScoreKeeperTileTest, JoinBoundDominatesExactGain) {
  for (const uint64_t seed : {5ull, 6ull}) {
    const Instance instance = RandomInstance(70, 25, seed);
    const Assignment assignment = GreedyAssignment(instance);

    CoopTile tile;
    ASSERT_TRUE(tile.BuildFrom(instance.coop(), 2048));
    ScoreKeeper tiled(instance);
    tiled.AttachTile(&tile);
    tiled.Sync(assignment);
    const ScoreKeeper plain(instance, assignment);

    for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
      for (const TaskIndex t : instance.ValidTasks(w)) {
        const int capacity =
            instance.tasks()[static_cast<size_t>(t)].capacity;
        if (assignment.TaskOf(w) == t) continue;
        if (assignment.GroupSize(t) >= capacity) continue;
        EXPECT_GE(tiled.JoinBound(w, t), tiled.GainIfJoined(w, t))
            << "tile bound below exact gain, w=" << w << " t=" << t;
        EXPECT_GE(plain.JoinBound(w, t), plain.GainIfJoined(w, t))
            << "matrix bound below exact gain, w=" << w << " t=" << t;
      }
    }
  }
}

TEST(ScoreKeeperTileTest, BoundTicksSurviveMutationChurn) {
  const Instance instance = RandomInstance(40, 15, 7);
  Assignment assignment(instance);
  CoopTile tile;
  ASSERT_TRUE(tile.BuildFrom(instance.coop(), 2048));
  ScoreKeeper keeper(instance);
  keeper.AttachTile(&tile);
  keeper.Sync(assignment);

  // Churn: every worker joins then leaves then rejoins its first valid
  // task. Integer tick arithmetic must come back to the same bounds a
  // fresh Sync computes.
  Rng rng(8);
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const auto& valid = instance.ValidTasks(w);
    if (valid.empty()) continue;
    const TaskIndex t = valid[static_cast<size_t>(
        rng.UniformInt(static_cast<uint64_t>(valid.size())))];
    const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
    if (assignment.GroupSize(t) >= capacity) continue;
    assignment.Assign(w, t);
    keeper.Add(w, t);
    assignment.Unassign(w);
    keeper.Remove(w, t);
    assignment.Assign(w, t);
    keeper.Add(w, t);
  }
  ScoreKeeper fresh(instance);
  fresh.AttachTile(&tile);
  fresh.Sync(assignment);
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    for (const TaskIndex t : instance.ValidTasks(w)) {
      const int capacity =
          instance.tasks()[static_cast<size_t>(t)].capacity;
      if (assignment.TaskOf(w) == t) continue;
      if (assignment.GroupSize(t) >= capacity) continue;
      EXPECT_EQ(keeper.JoinBound(w, t), fresh.JoinBound(w, t));
    }
  }
}

// ---------------------------------------------------------------------------
// BatchWorkspace tile pooling
// ---------------------------------------------------------------------------

TEST(BatchWorkspaceTileTest, CachesByMatrixIdentity) {
  const Instance a = RandomInstance(30, 10, 31);
  const Instance b = RandomInstance(30, 10, 32);
  BatchWorkspace workspace;

  const CoopTile* tile_a = workspace.PrepareCoopTile(a);
  ASSERT_NE(tile_a, nullptr);
  EXPECT_TRUE(tile_a->built());
  EXPECT_EQ(tile_a->source_identity(), a.coop().IdentityHash());

  // Same matrix again: cache hit, same pointer, same build.
  const uint64_t identity_a = tile_a->source_identity();
  const CoopTile* again = workspace.PrepareCoopTile(a);
  EXPECT_EQ(again, tile_a);
  EXPECT_EQ(again->source_identity(), identity_a);

  // Different matrix: rebuilt in place for the new identity.
  const CoopTile* tile_b = workspace.PrepareCoopTile(b);
  ASSERT_NE(tile_b, nullptr);
  EXPECT_EQ(tile_b->source_identity(), b.coop().IdentityHash());
  EXPECT_NE(tile_b->source_identity(), identity_a);
  ExpectTileMatches(b.coop(), *tile_b);
}

// The ceiling is cached once per process, so each case must run in a
// freshly executed child: the threadsafe death-test style re-runs the
// test from the top, where the cache is still empty.
TEST(BatchWorkspaceTileDeathTest, MalformedTileCeilingIsRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Instance instance = RandomInstance(30, 10, 33);
  for (const char* bad : {"abc", "12x", "", "-1", "99999999999"}) {
    EXPECT_DEATH(
        {
          ::setenv("CASC_TILE_MAX_WORKERS", bad, 1);
          BatchWorkspace workspace;
          (void)workspace.PrepareCoopTile(instance);
        },
        std::string("CASC_TILE_MAX_WORKERS must be a non-negative "
                    "integer, got '") +
            bad + "'")
        << "value '" << bad << "'";
  }
}

}  // namespace
}  // namespace casc
