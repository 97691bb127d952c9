#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "algo/tpg_assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/assignment.h"
#include "model/batch_workspace.h"
#include "model/group_store.h"
#include "model/instance.h"
#include "model/valid_pair_index.h"

namespace casc {
namespace {

// ---------------------------------------------------------------------------
// ValidPairIndex: CSR build protocol
// ---------------------------------------------------------------------------

TEST(ValidPairIndexTest, BuildsBothDirections) {
  ValidPairIndex index;
  index.BeginBuild(3, 2);
  index.AppendValidTask(0);  // worker 0 -> {0, 1}
  index.AppendValidTask(1);
  index.FinishWorker();
  index.FinishWorker();      // worker 1 -> {}
  index.AppendValidTask(1);  // worker 2 -> {1}
  index.FinishWorker();
  index.FinishBuild();

  ASSERT_TRUE(index.ready());
  EXPECT_EQ(index.num_workers(), 3);
  EXPECT_EQ(index.num_tasks(), 2);
  EXPECT_EQ(index.NumValidPairs(), 3u);

  const auto tasks_of = [&](WorkerIndex w) {
    const std::span<const TaskIndex> s = index.ValidTasks(w);
    return std::vector<TaskIndex>(s.begin(), s.end());
  };
  const auto candidates_of = [&](TaskIndex t) {
    const std::span<const WorkerIndex> s = index.Candidates(t);
    return std::vector<WorkerIndex>(s.begin(), s.end());
  };
  EXPECT_EQ(tasks_of(0), (std::vector<TaskIndex>{0, 1}));
  EXPECT_EQ(tasks_of(1), (std::vector<TaskIndex>{}));
  EXPECT_EQ(tasks_of(2), (std::vector<TaskIndex>{1}));
  EXPECT_EQ(candidates_of(0), (std::vector<WorkerIndex>{0}));
  EXPECT_EQ(candidates_of(1), (std::vector<WorkerIndex>{0, 2}));
}

TEST(ValidPairIndexTest, ClearKeepsCapacityAndAllowsRebuild) {
  ValidPairIndex index;
  index.BeginBuild(2, 2);
  index.AppendValidTask(0);
  index.FinishWorker();
  index.AppendValidTask(0);
  index.AppendValidTask(1);
  index.FinishWorker();
  index.FinishBuild();
  index.Clear();
  EXPECT_FALSE(index.ready());

  const int64_t before = ValidPairIndex::TotalReallocs();
  index.BeginBuild(2, 2);  // same shape, fewer pairs: no growth allowed
  index.FinishWorker();
  index.AppendValidTask(1);
  index.FinishWorker();
  index.FinishBuild();
  EXPECT_EQ(ValidPairIndex::TotalReallocs(), before);
  EXPECT_EQ(index.NumValidPairs(), 1u);
  const std::span<const WorkerIndex> c1 = index.Candidates(1);
  EXPECT_EQ(std::vector<WorkerIndex>(c1.begin(), c1.end()),
            (std::vector<WorkerIndex>{1}));
}

// ---------------------------------------------------------------------------
// GroupStore: slab layout and order preservation
// ---------------------------------------------------------------------------

TEST(GroupStoreTest, PushEraseKeepsInsertionOrder) {
  GroupStore store;
  const std::vector<int> capacities = {3, 2};
  store.Reset(capacities, /*max_members=*/8, /*slack=*/1);
  ASSERT_EQ(store.num_groups(), 2);

  store.PushBack(0, 7);
  store.PushBack(0, 4);
  store.PushBack(0, 9);
  store.PushBack(1, 2);
  store.Erase(0, 4);  // shift-erase: 9 moves left, order {7, 9}

  const std::span<const WorkerIndex> g0 = store.Group(0);
  EXPECT_EQ(std::vector<WorkerIndex>(g0.begin(), g0.end()),
            (std::vector<WorkerIndex>{7, 9}));
  EXPECT_EQ(store.size(1), 1);

  store.ClearGroups();
  EXPECT_EQ(store.size(0), 0);
  EXPECT_EQ(store.size(1), 0);
}

TEST(GroupStoreTest, SlackSlotAbsorbsTransientOverfill) {
  GroupStore store;
  const std::vector<int> capacities = {1};
  store.Reset(capacities, /*max_members=*/8, /*slack=*/1);
  store.PushBack(0, 0);
  store.PushBack(0, 1);  // capacity + 1: the GT crowding probe
  EXPECT_EQ(store.size(0), 2);
  store.Erase(0, 0);
  const std::span<const WorkerIndex> g = store.Group(0);
  EXPECT_EQ(std::vector<WorkerIndex>(g.begin(), g.end()),
            (std::vector<WorkerIndex>{1}));
}

TEST(GroupStoreTest, SlabCappedAtMaxMembers) {
  // A group never holds more than the batch's workers, so a huge capacity
  // costs max_members + slack slots, and the slot total cannot overflow.
  GroupStore store;
  const int huge = std::numeric_limits<int>::max();
  const std::vector<int> capacities = {huge, huge, 2};
  store.Reset(capacities, /*max_members=*/4, /*slack=*/1);
  for (WorkerIndex w = 0; w < 5; ++w) store.PushBack(0, w);  // 4 + slack
  for (WorkerIndex w = 0; w < 5; ++w) store.PushBack(1, w);
  store.PushBack(2, 0);
  store.PushBack(2, 1);
  store.PushBack(2, 2);  // capacity 2 + slack
  EXPECT_EQ(store.size(0), 5);
  EXPECT_EQ(store.size(1), 5);
  EXPECT_EQ(store.size(2), 3);
  EXPECT_DEATH(store.PushBack(0, 5), "slab overflow");
}

TEST(GroupStoreDeathTest, SlotTotalBeyondInt32IsRejected) {
  GroupStore store;
  const int huge = std::numeric_limits<int>::max();
  const std::vector<int> capacities = {huge, huge};
  EXPECT_DEATH(store.Reset(capacities, /*max_members=*/huge, /*slack=*/1),
               "int32 slot range");
}

// ---------------------------------------------------------------------------
// Differential fuzz: slab-backed Assignment vs reference nested vectors
// ---------------------------------------------------------------------------

/// The pre-refactor representation, kept as an executable specification:
/// per-worker task plus nested per-task groups with push_back insertion
/// and order-preserving erase.
class ReferenceAssignment {
 public:
  explicit ReferenceAssignment(const Instance& instance)
      : task_of_(static_cast<size_t>(instance.num_workers()), kNoTask),
        groups_(static_cast<size_t>(instance.num_tasks())) {}

  void Assign(WorkerIndex w, TaskIndex t) {
    if (task_of_[static_cast<size_t>(w)] == t) return;
    Unassign(w);
    task_of_[static_cast<size_t>(w)] = t;
    groups_[static_cast<size_t>(t)].push_back(w);
  }

  void Unassign(WorkerIndex w) {
    const TaskIndex t = task_of_[static_cast<size_t>(w)];
    if (t == kNoTask) return;
    std::vector<WorkerIndex>& group = groups_[static_cast<size_t>(t)];
    group.erase(std::find(group.begin(), group.end(), w));
    task_of_[static_cast<size_t>(w)] = kNoTask;
  }

  void Reset(const Instance& instance) {
    task_of_.assign(static_cast<size_t>(instance.num_workers()), kNoTask);
    groups_.assign(static_cast<size_t>(instance.num_tasks()), {});
  }

  TaskIndex TaskOf(WorkerIndex w) const {
    return task_of_[static_cast<size_t>(w)];
  }
  const std::vector<WorkerIndex>& GroupOf(TaskIndex t) const {
    return groups_[static_cast<size_t>(t)];
  }

  int NumAssigned() const {
    int count = 0;
    for (const TaskIndex t : task_of_) count += (t != kNoTask) ? 1 : 0;
    return count;
  }

  std::vector<AssignedPair> Pairs() const {
    std::vector<AssignedPair> pairs;
    for (TaskIndex t = 0; t < static_cast<int>(groups_.size()); ++t) {
      for (const WorkerIndex w : groups_[static_cast<size_t>(t)]) {
        pairs.push_back({w, t});
      }
    }
    return pairs;
  }

 private:
  std::vector<TaskIndex> task_of_;
  std::vector<std::vector<WorkerIndex>> groups_;
};

void ExpectSameState(const Instance& instance, const Assignment& actual,
                     const ReferenceAssignment& expected) {
  ASSERT_EQ(actual.NumAssigned(), expected.NumAssigned());
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    ASSERT_EQ(actual.TaskOf(w), expected.TaskOf(w)) << "worker " << w;
  }
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    const std::span<const WorkerIndex> group = actual.GroupOf(t);
    ASSERT_EQ(std::vector<WorkerIndex>(group.begin(), group.end()),
              expected.GroupOf(t))
        << "task " << t;
    ASSERT_EQ(actual.GroupSize(t),
              static_cast<int>(expected.GroupOf(t).size()));
  }
  ASSERT_EQ(actual.Pairs(), expected.Pairs());
  // ForEachPair must visit exactly the Pairs() sequence.
  std::vector<AssignedPair> visited;
  actual.ForEachPair(
      [&](WorkerIndex w, TaskIndex t) { visited.push_back({w, t}); });
  ASSERT_EQ(visited, expected.Pairs());
}

class AssignmentFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AssignmentFuzzTest, MatchesReferenceUnderRandomChurn) {
  Rng rng(GetParam());
  SyntheticInstanceConfig config;
  config.num_workers = 40;
  config.num_tasks = 12;
  config.task.capacity = 3;
  Instance instance = GenerateSyntheticInstance(config, 0.0, &rng);

  Assignment actual(instance);
  ReferenceAssignment expected(instance);

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 55) {
      // Assign a random worker to a random task; skip when the slab is at
      // its hard limit (capacity + slack), which mutators never exceed.
      const WorkerIndex w =
          static_cast<WorkerIndex>(rng.UniformInt(0, instance.num_workers() - 1));
      const TaskIndex t =
          static_cast<TaskIndex>(rng.UniformInt(0, instance.num_tasks() - 1));
      const int limit =
          instance.tasks()[static_cast<size_t>(t)].capacity + 1;
      if (actual.TaskOf(w) != t && actual.GroupSize(t) >= limit) continue;
      actual.Assign(w, t);
      expected.Assign(w, t);
    } else if (op < 90) {
      const WorkerIndex w =
          static_cast<WorkerIndex>(rng.UniformInt(0, instance.num_workers() - 1));
      actual.Unassign(w);
      expected.Unassign(w);
    } else if (op < 99) {
      // Re-assign an already-busy worker (exercises the detach path).
      const WorkerIndex w =
          static_cast<WorkerIndex>(rng.UniformInt(0, instance.num_workers() - 1));
      if (actual.TaskOf(w) == kNoTask) continue;
      const TaskIndex t =
          static_cast<TaskIndex>(rng.UniformInt(0, instance.num_tasks() - 1));
      const int limit =
          instance.tasks()[static_cast<size_t>(t)].capacity + 1;
      if (actual.TaskOf(w) != t && actual.GroupSize(t) >= limit) continue;
      actual.Assign(w, t);
      expected.Assign(w, t);
    } else {
      // Batch reset, as the streaming loop does between rounds.
      actual.Reset(instance);
      expected.Reset(instance);
    }
    if (step % 97 == 0 || step + 1 == 3000) {
      ExpectSameState(instance, actual, expected);
      // Validate() verdicts agree with a scratch check of the reference:
      // same pairs => same verdict, so it must accept iff all reference
      // pairs are valid and within capacity.
      bool reference_ok = true;
      for (const AssignedPair& pair : expected.Pairs()) {
        if (!instance.IsValidPair(pair.worker, pair.task)) {
          reference_ok = false;
        }
      }
      for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
        if (static_cast<int>(expected.GroupOf(t).size()) >
            instance.tasks()[static_cast<size_t>(t)].capacity) {
          reference_ok = false;
        }
      }
      ASSERT_EQ(actual.Validate(instance).ok(), reference_ok)
          << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Workspace reuse: steady-state streaming allocates nothing in the
// group store / pair index backing arrays
// ---------------------------------------------------------------------------

TEST(BatchWorkspaceTest, SteadyStateStreamingDoesNotGrowBackingArrays) {
  SyntheticInstanceConfig config;
  config.num_workers = 120;
  config.num_tasks = 40;

  // A template batch: the generator builds its own pair index outside the
  // workspace, so each streamed batch is constructed from the raw
  // workers/tasks and computes its pairs through the pooled CSR index —
  // exactly what DispatchService::Run does per batch.
  Rng rng(100);
  const Instance seed_batch = GenerateSyntheticInstance(config, 0.0, &rng);

  // Each solver fills one batch's assignment against the workspace: a
  // hand-rolled first-fit drawn from the pool, and TPG on its pooled path.
  // Either way the assignment is recycled once the batch is done.
  using Solve = std::function<Assignment(const Instance&, BatchWorkspace*)>;
  TpgAssigner tpg;
  const struct {
    const char* name;
    Solve solve;
  } solvers[] = {
      {"hand fill",
       [](const Instance& instance, BatchWorkspace* workspace) {
         Assignment assignment = workspace->AcquireAssignment(instance);
         for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
           for (const TaskIndex t : instance.ValidTasks(w)) {
             if (assignment.GroupSize(t) <
                 instance.tasks()[static_cast<size_t>(t)].capacity) {
               assignment.Assign(w, t);
               break;
             }
           }
         }
         return assignment;
       }},
      {"tpg",
       [&tpg](const Instance& instance, BatchWorkspace* workspace) {
         tpg.set_workspace(workspace);
         return tpg.Run(instance);
       }},
  };

  for (const auto& solver : solvers) {
    SCOPED_TRACE(solver.name);
    BatchWorkspace workspace;
    const auto run_batch = [&]() {
      Instance instance(seed_batch.workers(), seed_batch.tasks(),
                        seed_batch.coop(), seed_batch.now(),
                        seed_batch.min_group_size());
      instance.ComputeValidPairs(&workspace);
      Assignment assignment = solver.solve(instance, &workspace);
      EXPECT_GT(assignment.NumAssigned(), 0);
      workspace.Recycle(std::move(assignment));
      workspace.Recycle(instance.ReleaseValidPairs());
    };

    // Warm-up batches size every pooled buffer; same-shape batches after
    // that must not move either process-wide realloc counter.
    run_batch();
    run_batch();
    const int64_t group_reallocs = GroupStore::TotalReallocs();
    const int64_t pair_reallocs = ValidPairIndex::TotalReallocs();
    for (int round = 0; round < 8; ++round) run_batch();
    EXPECT_EQ(GroupStore::TotalReallocs(), group_reallocs);
    EXPECT_EQ(ValidPairIndex::TotalReallocs(), pair_reallocs);
  }
}

TEST(BatchWorkspaceTest, AcquiredAssignmentIsEmptyAndShaped) {
  Rng rng(55);
  SyntheticInstanceConfig config;
  config.num_workers = 10;
  config.num_tasks = 4;
  Instance instance = GenerateSyntheticInstance(config, 0.0, &rng);

  BatchWorkspace workspace;
  Assignment first = workspace.AcquireAssignment(instance);
  first.Assign(0, 0);
  first.Assign(1, 0);
  workspace.Recycle(std::move(first));

  Assignment second = workspace.AcquireAssignment(instance);
  EXPECT_EQ(second.NumAssigned(), 0);
  EXPECT_EQ(second.num_workers(), instance.num_workers());
  EXPECT_EQ(second.num_tasks(), instance.num_tasks());
  EXPECT_EQ(second.TaskOf(0), kNoTask);
  EXPECT_TRUE(second.GroupOf(0).empty());
}

}  // namespace
}  // namespace casc
