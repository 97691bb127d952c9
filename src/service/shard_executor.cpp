#include "service/shard_executor.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "model/valid_pair_index.h"

namespace casc {
namespace {

/// Builds shard `s`'s local instance. `task_shard`/`task_local` map every
/// global task index to its shard and position within that shard's list
/// (-1 when absent). `workspace` recycles the CSR pair index across
/// batches.
ShardProblem BuildOne(const Instance& global, const ShardMap& map, int s,
                      const std::vector<int>& task_shard,
                      const std::vector<int>& task_local,
                      const SolveDelta* delta, BatchWorkspace* workspace) {
  const std::vector<WorkerIndex>& global_workers = map.HomeWorkersOf(s);
  const std::vector<TaskIndex>& global_tasks = map.TasksOf(s);

  std::vector<Worker> workers;
  workers.reserve(global_workers.size());
  std::vector<int> coop_ids;
  coop_ids.reserve(global_workers.size());
  for (const WorkerIndex gw : global_workers) {
    workers.push_back(global.workers()[static_cast<size_t>(gw)]);
    coop_ids.push_back(gw);
  }
  std::vector<Task> tasks;
  tasks.reserve(global_tasks.size());
  for (const TaskIndex gt : global_tasks) {
    tasks.push_back(global.tasks()[static_cast<size_t>(gt)]);
  }

  Instance local(std::move(workers), std::move(tasks),
                 global.coop().View(std::move(coop_ids)), global.now(),
                 global.min_group_size());
  // The shard sub-problem scores under the same objective as the global
  // instance (the Worker/Task copies above already carried the skill
  // masks a variant objective reads).
  local.set_objective(&global.objective());

  // Local valid pairs are the global lists filtered to this shard and
  // remapped, written straight into a (recycled) CSR index; ascending
  // order is preserved because the per-shard lists are ascending in the
  // global index. An interior worker's valid tasks all live in its shard
  // by construction (the invariant phase 1 rests on — CHECKed); a
  // boundary home worker keeps only its home-shard tasks here and is
  // re-arbitrated across shards in phase 2. The task-major candidate
  // lists fall out of FinishBuild's counting pass — identical to the old
  // per-task filter of global.Candidates because HomeWorkersOf is
  // ascending in the global worker index.
  ValidPairIndex csr = workspace->AcquireValidPairIndex();
  csr.BeginBuild(static_cast<int>(global_workers.size()),
                 static_cast<int>(global_tasks.size()));
  for (size_t lw = 0; lw < global_workers.size(); ++lw) {
    const WorkerIndex gw = global_workers[lw];
    const bool boundary = map.IsBoundary(gw);
    for (const TaskIndex gt : global.ValidTasks(gw)) {
      if (boundary) {
        if (task_shard[static_cast<size_t>(gt)] != s) continue;
      } else {
        CASC_CHECK_EQ(task_shard[static_cast<size_t>(gt)], s)
            << "interior worker " << gw << " has valid task " << gt
            << " outside its shard — ShardMap classification is broken";
      }
      csr.AppendValidTask(task_local[static_cast<size_t>(gt)]);
    }
    csr.FinishWorker();
  }
  csr.FinishBuild();
  local.AdoptValidPairs(std::move(csr));

  ShardProblem problem{std::move(local), global_workers, global_tasks, {}};
  // Slice the batch's warm-start delta to this shard: remap retained
  // seeds to local task indices, keep the global dirty flags, and treat
  // an off-shard seed as lost (seedless + dirty) — the restriction of a
  // capacity-feasible global skeleton to a worker subset stays
  // capacity-feasible, and the local seed is a local valid pair because
  // the CSR above keeps exactly the home-shard tasks of each worker's
  // global valid list. Deterministic per shard, so the warm sharded path
  // stays independent of thread count and scheduling.
  if (delta != nullptr && delta->num_carried > 0) {
    SolveDelta& sliced = problem.delta;
    const size_t local_workers = problem.global_workers.size();
    sliced.seed_task.assign(local_workers, kNoTask);
    sliced.dirty.assign(local_workers, 0);
    for (size_t lw = 0; lw < local_workers; ++lw) {
      const size_t gw = static_cast<size_t>(problem.global_workers[lw]);
      sliced.dirty[lw] = delta->dirty[gw];
      const TaskIndex gseed = delta->seed_task[gw];
      if (gseed == kNoTask) continue;
      if (task_shard[static_cast<size_t>(gseed)] == s) {
        sliced.seed_task[lw] =
            static_cast<TaskIndex>(task_local[static_cast<size_t>(gseed)]);
        ++sliced.num_seeded;
      } else {
        sliced.dirty[lw] = 1;  // seed lost to another shard: re-solve
      }
    }
    // Locally carried = clean or still seeded. (A carried worker whose
    // seed died reads as fresh here — conservative, and deterministic for
    // any shard layout.)
    for (size_t lw = 0; lw < local_workers; ++lw) {
      sliced.num_dirty += sliced.dirty[lw];
      if (sliced.dirty[lw] == 0 || sliced.seed_task[lw] != kNoTask) {
        ++sliced.num_carried;
      }
    }
    const size_t local_tasks = problem.global_tasks.size();
    sliced.dirty_task.assign(local_tasks, 0);
    for (size_t lt = 0; lt < local_tasks; ++lt) {
      const size_t gt = static_cast<size_t>(problem.global_tasks[lt]);
      sliced.dirty_task[lt] = delta->dirty_task[gt];
      sliced.num_dirty_tasks += sliced.dirty_task[lt];
    }
  }
  return problem;
}

}  // namespace

ShardExecutor::ShardExecutor(int num_threads) : pool_(num_threads) {}

void ShardExecutor::EnsureWorkspaces(int count) {
  while (static_cast<int>(workspaces_.size()) < count) {
    workspaces_.push_back(std::make_unique<BatchWorkspace>());
  }
}

std::vector<ShardProblem> ShardExecutor::BuildProblems(
    const Instance& global, const ShardMap& map, const SolveDelta* delta) {
  CASC_CHECK(global.valid_pairs_ready())
      << "compute the global valid pairs before sharding";
  const int num_shards = map.num_shards();
  EnsureWorkspaces(num_shards);

  // Global task -> (shard, local position), one serial pass. Worker-side
  // maps are no longer needed: the CSR FinishBuild pass derives each
  // task's candidate list from the worker-major lists.
  std::vector<int> task_shard(static_cast<size_t>(global.num_tasks()), -1);
  std::vector<int> task_local(static_cast<size_t>(global.num_tasks()), -1);
  for (int s = 0; s < num_shards; ++s) {
    const std::vector<TaskIndex>& tasks = map.TasksOf(s);
    for (size_t i = 0; i < tasks.size(); ++i) {
      task_shard[static_cast<size_t>(tasks[i])] = s;
      task_local[static_cast<size_t>(tasks[i])] = static_cast<int>(i);
    }
  }

  std::vector<std::optional<ShardProblem>> built(
      static_cast<size_t>(num_shards));
  pool_.ParallelFor(num_shards, [&](int64_t s) {
    built[static_cast<size_t>(s)] =
        BuildOne(global, map, static_cast<int>(s), task_shard, task_local,
                 delta, workspaces_[static_cast<size_t>(s)].get());
  });

  std::vector<ShardProblem> problems;
  problems.reserve(static_cast<size_t>(num_shards));
  for (auto& problem : built) {
    problems.push_back(std::move(*problem));
  }
  return problems;
}

void ShardExecutor::RecycleProblems(std::vector<ShardProblem>* problems) {
  CASC_CHECK(problems != nullptr);
  EnsureWorkspaces(static_cast<int>(problems->size()));
  for (size_t s = 0; s < problems->size(); ++s) {
    Instance& instance = (*problems)[s].instance;
    if (!instance.valid_pairs_ready()) continue;
    workspaces_[s]->Recycle(instance.ReleaseValidPairs());
  }
}

std::optional<Assignment> ShardExecutor::SolveProblem(
    const ShardProblem& problem, const AssignerFactory& factory,
    BatchWorkspace* workspace, double* seconds, AssignerStats* stats,
    bool use_delta) {
  CASC_CHECK(factory != nullptr);
  if (problem.instance.num_workers() == 0 ||
      problem.instance.num_tasks() == 0) {
    return std::nullopt;  // nothing to assign; fold treats absent as empty
  }
  Stopwatch watch;
  const std::unique_ptr<Assigner> solver = factory();
  solver->set_workspace(workspace);
  if (use_delta && problem.delta.num_carried > 0) {
    solver->set_solve_delta(&problem.delta);
  }
  std::optional<Assignment> local = solver->Run(problem.instance);
  if (seconds != nullptr) *seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = solver->stats();
  return local;
}

void ShardExecutor::FoldProblem(const ShardProblem& problem,
                                const Assignment& local, Assignment* global) {
  CASC_CHECK(global != nullptr);
  local.ForEachPair([&](WorkerIndex lw, TaskIndex lt) {
    global->Assign(problem.global_workers[static_cast<size_t>(lw)],
                   problem.global_tasks[static_cast<size_t>(lt)]);
  });
}

Assignment ShardExecutor::Run(const Instance& global,
                              const std::vector<ShardProblem>& problems,
                              const AssignerFactory& factory,
                              std::vector<double>* shard_seconds,
                              BatchWorkspace* global_workspace,
                              std::vector<AssignerStats>* shard_stats) {
  CASC_CHECK(factory != nullptr);
  const int num_shards = static_cast<int>(problems.size());
  EnsureWorkspaces(num_shards);
  std::vector<std::optional<Assignment>> locals(
      static_cast<size_t>(num_shards));
  std::vector<double> seconds(static_cast<size_t>(num_shards), 0.0);
  if (shard_stats != nullptr) {
    shard_stats->assign(static_cast<size_t>(num_shards), AssignerStats{});
  }

  // Heaviest first: threads claim shards in descending order of valid
  // pairs (ties by shard index), so a dense shard does not start last and
  // run alone at the end. Every result stays indexed by shard, so the
  // claim order changes no output.
  std::vector<int> claim_order(static_cast<size_t>(num_shards));
  std::iota(claim_order.begin(), claim_order.end(), 0);
  std::stable_sort(claim_order.begin(), claim_order.end(), [&](int a, int b) {
    return problems[static_cast<size_t>(a)].instance.NumValidPairs() >
           problems[static_cast<size_t>(b)].instance.NumValidPairs();
  });
  pool_.ParallelFor(num_shards, [&](int64_t k) {
    const size_t i = static_cast<size_t>(claim_order[static_cast<size_t>(k)]);
    locals[i] = SolveProblem(problems[i], factory, workspaces_[i].get(),
                             &seconds[i],
                             shard_stats != nullptr ? &(*shard_stats)[i]
                                                    : nullptr);
  });

  // Deterministic fold: ascending shard order, local insertion order.
  // Shards are disjoint in both workers and tasks, so group insertion
  // order within any task matches the local solver's order exactly.
  Assignment assignment = global_workspace != nullptr
                              ? global_workspace->AcquireAssignment(global)
                              : Assignment(global);
  for (int s = 0; s < num_shards; ++s) {
    if (!locals[static_cast<size_t>(s)].has_value()) continue;
    Assignment& local = *locals[static_cast<size_t>(s)];
    FoldProblem(problems[static_cast<size_t>(s)], local, &assignment);
    workspaces_[static_cast<size_t>(s)]->Recycle(std::move(local));
  }
  if (shard_seconds != nullptr) *shard_seconds = std::move(seconds);
  return assignment;
}

}  // namespace casc
