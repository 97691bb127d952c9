#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/assignment.h"
#include "model/cooperation_matrix.h"
#include "model/instance.h"
#include "model/task.h"
#include "model/worker.h"

namespace casc {
namespace {

/// Builds an instance where every pair is valid: all locations coincide,
/// radii and speeds are generous.
Instance TrivialInstance(int num_workers, int num_tasks, int capacity,
                         int min_group = 2) {
  std::vector<Worker> workers;
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(Worker{i, {0.5, 0.5}, 1.0, 1.0, 0.0});
  }
  std::vector<Task> tasks;
  for (int j = 0; j < num_tasks; ++j) {
    tasks.push_back(Task{j, {0.5, 0.5}, 0.0, 10.0, capacity});
  }
  CooperationMatrix coop(num_workers, 0.5);
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    /*now=*/0.0, min_group);
  instance.ComputeValidPairs();
  return instance;
}

// ---------------------------------------------------------------------------
// Worker / Task
// ---------------------------------------------------------------------------

TEST(WorkerTest, ToStringMentionsFields) {
  const Worker worker{42, {0.1, 0.2}, 0.03, 0.07, 1.5};
  const std::string text = ToString(worker);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("0.03"), std::string::npos);
}

TEST(TaskTest, ToStringMentionsFields) {
  const Task task{7, {0.3, 0.4}, 1.0, 4.0, 5};
  const std::string text = ToString(task);
  EXPECT_NE(text.find("7"), std::string::npos);
  EXPECT_NE(text.find("capacity=5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CooperationMatrix
// ---------------------------------------------------------------------------

TEST(CooperationMatrixTest, InitialValueEverywhereOffDiagonal) {
  CooperationMatrix matrix(4, 0.3);
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_DOUBLE_EQ(matrix.Quality(i, k), i == k ? 0.0 : 0.3);
    }
  }
}

TEST(CooperationMatrixTest, SetQualityIsDirectional) {
  CooperationMatrix matrix(3);
  matrix.SetQuality(0, 1, 0.8);
  EXPECT_DOUBLE_EQ(matrix.Quality(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(matrix.Quality(1, 0), 0.0);
}

TEST(CooperationMatrixTest, SetSymmetricWritesBoth) {
  CooperationMatrix matrix(3);
  matrix.SetSymmetric(0, 2, 0.6);
  EXPECT_DOUBLE_EQ(matrix.Quality(0, 2), 0.6);
  EXPECT_DOUBLE_EQ(matrix.Quality(2, 0), 0.6);
}

TEST(CooperationMatrixTest, PairSumCountsOrderedPairs) {
  CooperationMatrix matrix(3);
  matrix.SetQuality(0, 1, 0.1);
  matrix.SetQuality(1, 0, 0.2);
  matrix.SetQuality(0, 2, 0.3);
  matrix.SetQuality(2, 0, 0.4);
  matrix.SetQuality(1, 2, 0.5);
  matrix.SetQuality(2, 1, 0.6);
  EXPECT_NEAR(matrix.PairSum({0, 1, 2}), 2.1, 1e-12);
  EXPECT_NEAR(matrix.PairSum({0, 1}), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(matrix.PairSum({0}), 0.0);
  EXPECT_DOUBLE_EQ(matrix.PairSum({}), 0.0);
}

TEST(CooperationMatrixTest, RowSumSkipsSelf) {
  CooperationMatrix matrix(3);
  matrix.SetQuality(0, 1, 0.25);
  matrix.SetQuality(0, 2, 0.5);
  EXPECT_NEAR(matrix.RowSum(0, {0, 1, 2}), 0.75, 1e-12);
  EXPECT_NEAR(matrix.RowSum(0, {1}), 0.25, 1e-12);
}

TEST(CooperationMatrixTest, EmptyMatrixIsUsable) {
  CooperationMatrix matrix;
  EXPECT_EQ(matrix.num_workers(), 0);
}

TEST(CooperationMatrixTest, IdentityHashTracksMutation) {
  Rng rng(24);
  CooperationMatrix coop(12, 0.0);
  for (int i = 0; i < 12; ++i) {
    for (int k = 0; k < 12; ++k) {
      if (i != k) coop.SetQuality(i, k, rng.Uniform());
    }
  }
  const uint64_t before = coop.IdentityHash();
  EXPECT_EQ(coop.IdentityHash(), before) << "hash must be stable";
  coop.SetQuality(3, 4, 0.123);
  EXPECT_NE(coop.IdentityHash(), before);
  const CooperationMatrix view = coop.View({0, 1, 2});
  EXPECT_NE(view.IdentityHash(), coop.IdentityHash());
}

/// Checks MutualRow(i, ids) against Quality(i, k) + Quality(k, i) bit for
/// bit, for every row i and the id list `ids` (which may repeat ids).
void ExpectMutualRowsBitEqual(const CooperationMatrix& matrix,
                              const std::vector<int>& ids,
                              const std::string& label) {
  std::vector<double> out(ids.size());
  for (int i = 0; i < matrix.num_workers(); ++i) {
    matrix.MutualRow(i, ids, out);
    for (size_t k = 0; k < ids.size(); ++k) {
      const double expected =
          matrix.Quality(i, ids[k]) + matrix.Quality(ids[k], i);
      ASSERT_EQ(std::bit_cast<uint64_t>(out[k]),
                std::bit_cast<uint64_t>(expected))
          << label << ": row " << i << ", id " << ids[k];
    }
  }
}

TEST(CooperationMatrixTest, MutualRowIsBitEqualToTheQualitySum) {
  Rng rng(31);
  constexpr int kWorkers = 24;
  CooperationMatrix dense(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    for (int k = 0; k < kWorkers; ++k) {
      if (i != k) dense.SetQuality(i, k, rng.Uniform());  // asymmetric
    }
  }
  std::vector<int> all(kWorkers);
  for (int i = 0; i < kWorkers; ++i) all[static_cast<size_t>(i)] = i;
  // Every row against every id (diagonal included), then a shuffled
  // list with repeats.
  std::vector<int> mixed = all;
  rng.Shuffle(mixed);
  mixed.insert(mixed.end(), {3, 3, 0, kWorkers - 1});

  ExpectMutualRowsBitEqual(dense, all, "dense");
  ExpectMutualRowsBitEqual(dense, mixed, "dense mixed");
  const CooperationMatrix procedural =
      CooperationMatrix::Procedural(kWorkers, 77);
  ExpectMutualRowsBitEqual(procedural, all, "procedural");
  ExpectMutualRowsBitEqual(procedural, mixed, "procedural mixed");

  const std::vector<int> view_ids = {20, 3, 7, 11, 0, 15, 9, 2, 18, 5};
  const CooperationMatrix view = dense.View(view_ids);
  const std::vector<int> view_all = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  ExpectMutualRowsBitEqual(view, view_all, "view");
  ExpectMutualRowsBitEqual(procedural.View(view_ids), view_all,
                           "procedural view");
  const CooperationMatrix view_of_view = view.View({9, 4, 1, 6, 0});
  ExpectMutualRowsBitEqual(view_of_view, {0, 1, 2, 3, 4}, "view of view");

  // Logical ids 0 and 2 (and 1 and 3) alias one backing worker each:
  // their mutual value is the diagonal's 0.
  const CooperationMatrix aliasing = dense.View({5, 8, 5, 8, 1});
  ExpectMutualRowsBitEqual(aliasing, {0, 1, 2, 3, 4}, "aliasing view");
  std::vector<double> out(2);
  aliasing.MutualRow(0, std::vector<int>{2, 3}, out);
  EXPECT_EQ(std::bit_cast<uint64_t>(out[0]), std::bit_cast<uint64_t>(0.0));
  EXPECT_GT(out[1], 0.0);
}

/// Checks Mutual(i, k) against Quality(i, k) + Quality(k, i) bit for bit
/// for every ordered pair, the diagonal included.
void ExpectMutualBitEqual(const CooperationMatrix& matrix,
                          const std::string& label) {
  for (int i = 0; i < matrix.num_workers(); ++i) {
    for (int k = 0; k < matrix.num_workers(); ++k) {
      const double expected = matrix.Quality(i, k) + matrix.Quality(k, i);
      ASSERT_EQ(std::bit_cast<uint64_t>(matrix.Mutual(i, k)),
                std::bit_cast<uint64_t>(expected))
          << label << ": pair " << i << ", " << k;
    }
  }
}

TEST(CooperationMatrixTest, MutualIsBitEqualToTheQualitySum) {
  Rng rng(32);
  constexpr int kWorkers = 24;
  CooperationMatrix dense(kWorkers);
  for (int i = 0; i < kWorkers; ++i) {
    for (int k = 0; k < kWorkers; ++k) {
      if (i != k) dense.SetQuality(i, k, rng.Uniform());  // asymmetric
    }
  }
  ExpectMutualBitEqual(dense, "dense");
  const CooperationMatrix procedural =
      CooperationMatrix::Procedural(kWorkers, 78);
  ExpectMutualBitEqual(procedural, "procedural");

  const std::vector<int> view_ids = {20, 3, 7, 11, 0, 15, 9, 2, 18, 5};
  ExpectMutualBitEqual(dense.View(view_ids), "view");
  ExpectMutualBitEqual(procedural.View(view_ids), "procedural view");
  ExpectMutualBitEqual(dense.View(view_ids).View({9, 4, 1, 6, 0}),
                       "view of view");

  // Logical ids 0 and 2 (and 1 and 3) alias one backing worker each:
  // their mutual value is the diagonal's 0.
  const std::vector<int> aliased_ids = {5, 8, 5, 8, 1};
  const CooperationMatrix aliasing = dense.View(aliased_ids);
  ExpectMutualBitEqual(aliasing, "aliasing view");
  ExpectMutualBitEqual(procedural.View(aliased_ids),
                       "aliasing procedural view");
  EXPECT_EQ(std::bit_cast<uint64_t>(aliasing.Mutual(0, 2)),
            std::bit_cast<uint64_t>(0.0));
  EXPECT_GT(aliasing.Mutual(0, 1), 0.0);
}

TEST(CooperationMatrixDeathTest, MutualChecksBothLogicalIndices) {
  const CooperationMatrix dense(6, 0.5);
  EXPECT_DEATH(dense.Mutual(0, 6), "CHECK failed");
  EXPECT_DEATH(dense.Mutual(-1, 2), "CHECK failed");
  const CooperationMatrix view = dense.View({4, 1, 3});
  EXPECT_DEATH(view.Mutual(3, 0), "CHECK failed");
}

TEST(CooperationMatrixDeathTest, MutualRowChecksEveryLogicalIndex) {
  const CooperationMatrix dense(6, 0.5);
  const CooperationMatrix view = dense.View({4, 1, 3});
  const std::vector<int> out_of_range = {1, 6};
  const std::vector<int> in_range = {1, 2};
  std::vector<double> out(2);
  EXPECT_DEATH(dense.MutualRow(0, out_of_range, out), "CHECK failed");
  EXPECT_DEATH(dense.MutualRow(-1, in_range, out), "CHECK failed");
  // A view's ids are logical: 3 is in range for the base, not the view.
  EXPECT_DEATH(view.MutualRow(0, std::vector<int>{1, 3}, out),
               "CHECK failed");
  const CooperationMatrix procedural = CooperationMatrix::Procedural(4, 1);
  EXPECT_DEATH(procedural.MutualRow(1, std::vector<int>{2, 4}, out),
               "CHECK failed");
}

// ---------------------------------------------------------------------------
// CooperationHistory (Equation 1)
// ---------------------------------------------------------------------------

TEST(CooperationHistoryTest, NoHistoryYieldsPrior) {
  CooperationHistory history(4, /*alpha=*/0.5, /*omega=*/0.6);
  EXPECT_DOUBLE_EQ(history.EstimateQuality(0, 1), 0.6);
  EXPECT_EQ(history.CoTaskCount(0, 1), 0);
}

TEST(CooperationHistoryTest, Equation1Blend) {
  CooperationHistory history(3, 0.5, 0.5);
  history.RecordTask({0, 1}, 1.0);
  // q = 0.5 * 0.5 + 0.5 * 1.0 = 0.75.
  EXPECT_DOUBLE_EQ(history.EstimateQuality(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(history.EstimateQuality(1, 0), 0.75);
}

TEST(CooperationHistoryTest, RatingsAverage) {
  CooperationHistory history(3, 0.0, 0.5);  // alpha=0: pure history
  history.RecordTask({0, 1}, 1.0);
  history.RecordTask({0, 1}, 0.0);
  EXPECT_DOUBLE_EQ(history.EstimateQuality(0, 1), 0.5);
  EXPECT_EQ(history.CoTaskCount(0, 1), 2);
}

TEST(CooperationHistoryTest, GroupTaskUpdatesAllPairs) {
  CooperationHistory history(4, 0.5, 0.5);
  history.RecordTask({0, 1, 2}, 0.8);
  EXPECT_EQ(history.CoTaskCount(0, 1), 1);
  EXPECT_EQ(history.CoTaskCount(0, 2), 1);
  EXPECT_EQ(history.CoTaskCount(1, 2), 1);
  EXPECT_EQ(history.CoTaskCount(0, 3), 0);
}

TEST(CooperationHistoryTest, ToMatrixMatchesEstimates) {
  CooperationHistory history(4, 0.3, 0.5);
  history.RecordTask({0, 1}, 0.9);
  history.RecordTask({1, 2, 3}, 0.4);
  const CooperationMatrix matrix = history.ToMatrix();
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 4; ++k) {
      if (i == k) continue;
      EXPECT_DOUBLE_EQ(matrix.Quality(i, k), history.EstimateQuality(i, k))
          << "pair (" << i << "," << k << ")";
    }
  }
}

TEST(CooperationHistoryTest, AlphaOneIgnoresHistory) {
  CooperationHistory history(2, 1.0, 0.5);
  history.RecordTask({0, 1}, 1.0);
  EXPECT_DOUBLE_EQ(history.EstimateQuality(0, 1), 0.5);
}

// ---------------------------------------------------------------------------
// Assignment
// ---------------------------------------------------------------------------

TEST(AssignmentTest, AssignAndUnassign) {
  const Instance instance = TrivialInstance(4, 2, 3);
  Assignment assignment(instance);
  EXPECT_EQ(assignment.TaskOf(0), kNoTask);
  assignment.Assign(0, 1);
  EXPECT_EQ(assignment.TaskOf(0), 1);
  EXPECT_EQ(assignment.GroupSize(1), 1);
  EXPECT_EQ(assignment.NumAssigned(), 1);
  assignment.Unassign(0);
  EXPECT_EQ(assignment.TaskOf(0), kNoTask);
  EXPECT_EQ(assignment.GroupSize(1), 0);
  EXPECT_EQ(assignment.NumAssigned(), 0);
}

TEST(AssignmentTest, ReassignMovesBetweenGroups) {
  const Instance instance = TrivialInstance(4, 2, 3);
  Assignment assignment(instance);
  assignment.Assign(2, 0);
  assignment.Assign(2, 1);
  EXPECT_EQ(assignment.GroupSize(0), 0);
  EXPECT_EQ(assignment.GroupSize(1), 1);
  EXPECT_EQ(assignment.NumAssigned(), 1);
}

TEST(AssignmentTest, AssignToSameTaskIsNoop) {
  const Instance instance = TrivialInstance(4, 2, 3);
  Assignment assignment(instance);
  assignment.Assign(1, 0);
  assignment.Assign(1, 0);
  EXPECT_EQ(assignment.GroupSize(0), 1);
  EXPECT_EQ(assignment.NumAssigned(), 1);
}

TEST(AssignmentTest, PairsEnumeratesEverything) {
  const Instance instance = TrivialInstance(4, 2, 3);
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 1);
  const auto pairs = assignment.Pairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (AssignedPair{0, 0}));
  EXPECT_EQ(pairs[1], (AssignedPair{1, 0}));
  EXPECT_EQ(pairs[2], (AssignedPair{2, 1}));
}

TEST(AssignmentTest, ValidateAcceptsFeasible) {
  const Instance instance = TrivialInstance(4, 2, 2);
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 1);
  EXPECT_TRUE(assignment.Validate(instance).ok());
}

TEST(AssignmentTest, ValidateRejectsOverCapacity) {
  const Instance instance = TrivialInstance(4, 1, 2);
  Assignment assignment(instance);
  assignment.Assign(0, 0);
  assignment.Assign(1, 0);
  assignment.Assign(2, 0);  // capacity is 2
  const Status status = assignment.Validate(instance);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(AssignmentTest, ValidateRejectsInvalidPair) {
  // Task 0 is out of worker 0's reach.
  std::vector<Worker> workers = {Worker{0, {0.0, 0.0}, 0.01, 0.05, 0.0},
                                 Worker{1, {0.9, 0.9}, 0.01, 0.05, 0.0}};
  std::vector<Task> tasks = {Task{0, {0.9, 0.9}, 0.0, 1.0, 2}};
  CooperationMatrix coop(2, 0.5);
  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    0.0, 2);
  instance.ComputeValidPairs();
  Assignment assignment(instance);
  assignment.Assign(0, 0);  // geometrically invalid
  EXPECT_FALSE(assignment.Validate(instance).ok());
}

TEST(AssignmentTest, EmptyAssignmentValidates) {
  const Instance instance = TrivialInstance(3, 2, 2);
  Assignment assignment(instance);
  EXPECT_TRUE(assignment.Validate(instance).ok());
}

}  // namespace
}  // namespace casc
