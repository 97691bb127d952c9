#include <gtest/gtest.h>

#include <cstdint>
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
