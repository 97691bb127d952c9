#include "layer_probes.h"

#include <optional>

#include "algo/best_response.h"
#include "algo/tpg_assigner.h"
#include "algo/upper_bound.h"
#include "common/stopwatch.h"
#include "model/objective.h"
#include "model/score_keeper.h"
#include "service/boundary_reconciler.h"
#include "service/shard_map.h"

namespace perfbench {
namespace {

constexpr double kNashTolerance = 1e-9;
constexpr size_t kMaxFailureMessages = 20;

/// Forwards to the wrapped solver; times the solve and the tile prepare.
class ProbeAssigner : public casc::Assigner {
 public:
  ProbeAssigner(std::unique_ptr<casc::Assigner> inner, SolveProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string Name() const override { return inner_->Name(); }

  casc::Assignment Run(const casc::Instance& instance) override {
    inner_->set_workspace(workspace());
    inner_->set_solve_delta(solve_delta());
    if (workspace() != nullptr) {
      casc::Stopwatch tile_watch;
      const casc::CoopTile* tile = workspace()->PrepareCoopTile(instance);
      const double tile_seconds = tile_watch.ElapsedSeconds();
      uint64_t key = 0;
      if (tile != nullptr) {
        key = instance.coop().IdentityHash() ^
              (reinterpret_cast<uintptr_t>(&instance.objective()) *
               0x9E3779B97F4A7C15ull);
      }
      probe_->RecordTile(workspace(), key, tile_seconds);
    }
    casc::Stopwatch solve_watch;
    casc::Assignment assignment = inner_->Run(instance);
    probe_->RecordSolve(solve_watch.ElapsedSeconds());
    stats_ = inner_->stats();
    return assignment;
  }

 private:
  std::unique_ptr<casc::Assigner> inner_;
  SolveProbe* probe_;
};

/// UPPER (Equation 9) in co-candidate scope, computed on the sub-instance
/// of workers with at least one valid task. The others add nothing to
/// either side of Equation 9 and are nobody's co-candidate, and the remap
/// keeps every iteration order, so the value is bit-identical to
/// ComputeUpperBound on the full instance. The restriction only avoids
/// its per-worker O(workers) scratch, which is quadratic on a
/// million-worker streaming pool.
double ActiveUpperBound(const casc::Instance& instance) {
  std::vector<int> local(static_cast<size_t>(instance.num_workers()), -1);
  std::vector<casc::Worker> workers;
  std::vector<int> ids;
  for (casc::WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    if (instance.ValidTasks(w).empty()) continue;
    local[static_cast<size_t>(w)] = static_cast<int>(workers.size());
    workers.push_back(instance.workers()[static_cast<size_t>(w)]);
    ids.push_back(static_cast<int>(w));
  }
  if (static_cast<int>(workers.size()) == instance.num_workers()) {
    return casc::ComputeUpperBound(instance,
                                   casc::UpperBoundScope::kCoCandidates);
  }
  std::vector<std::vector<casc::TaskIndex>> valid_tasks;
  for (const int w : ids) {
    const auto tasks = instance.ValidTasks(w);
    valid_tasks.emplace_back(tasks.begin(), tasks.end());
  }
  std::vector<std::vector<casc::WorkerIndex>> candidates(
      static_cast<size_t>(instance.num_tasks()));
  for (casc::TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    for (const casc::WorkerIndex w : instance.Candidates(t)) {
      candidates[static_cast<size_t>(t)].push_back(
          local[static_cast<size_t>(w)]);
    }
  }
  casc::Instance active(std::move(workers), instance.tasks(),
                        instance.coop().View(std::move(ids)), instance.now(),
                        instance.min_group_size());
  active.AdoptValidPairs(std::move(valid_tasks), std::move(candidates));
  return casc::ComputeUpperBound(active, casc::UpperBoundScope::kCoCandidates);
}

}  // namespace

void Ledger::Record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < kMaxFailureMessages) failures.push_back(what);
}

void SolveProbe::RecordSolve(double seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  totals_.solve_seconds += seconds;
}

void SolveProbe::RecordTile(const casc::BatchWorkspace* workspace,
                            uint64_t key, double seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  totals_.tile_seconds += seconds;
  uint64_t& last = last_tile_key_[workspace];
  if (key != 0 && key != last) ++totals_.tile_builds;
  last = key;
}

SolveProbe::Totals SolveProbe::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

casc::AssignerFactory Probed(casc::AssignerFactory inner, SolveProbe* probe) {
  return [inner = std::move(inner), probe] {
    return std::make_unique<ProbeAssigner>(inner(), probe);
  };
}

BatchChecker::BatchChecker(casc::ShardedOptions options,
                           casc::AssignerFactory plain_factory,
                           bool gt_solver, bool deep, Ledger* ledger)
    : options_(std::move(options)),
      factory_(std::move(plain_factory)),
      gt_solver_(gt_solver),
      deep_(deep),
      ledger_(ledger),
      executor_(options_.num_threads) {}

void BatchChecker::Check(const casc::Instance& instance,
                         const casc::Assignment& assignment,
                         const casc::SolveDelta* delta) {
  std::vector<std::string> problems;
  const casc::Status valid = assignment.Validate(instance);
  if (!valid.ok()) problems.push_back("invalid assignment: " + valid.message());
  totals_.scores.push_back(casc::TotalScore(instance, assignment));

  casc::Stopwatch watch;
  totals_.upper += ActiveUpperBound(instance);
  totals_.upper_seconds += watch.ElapsedSeconds();

  if (deep_) {
    const casc::Assignment layered = Decompose(instance, delta, &problems);
    if (layered.Pairs() != assignment.Pairs()) {
      problems.push_back(
          "layer-by-layer solve differs from ShardedAssigner::Run");
    }
    casc::TpgAssigner tpg;
    watch.Restart();
    const casc::Assignment reference = tpg.Run(instance);
    totals_.tpg_seconds += watch.ElapsedSeconds();
    const casc::Status tpg_valid = reference.Validate(instance);
    if (!tpg_valid.ok()) {
      problems.push_back("invalid TPG reference: " + tpg_valid.message());
    }
  }

  std::string what = "check pass batch " +
                     std::to_string(totals_.scores.size() - 1) + ":";
  for (const std::string& problem : problems) what += " " + problem + ";";
  ledger_->Record(problems.empty(), what);
}

casc::Assignment BatchChecker::Decompose(const casc::Instance& instance,
                                         const casc::SolveDelta* delta,
                                         std::vector<std::string>* problems) {
  // The same usability gate ShardedAssigner::Run applies to its delta.
  if (delta != nullptr &&
      (delta->num_carried == 0 ||
       static_cast<int>(delta->seed_task.size()) != instance.num_workers())) {
    delta = nullptr;
  }

  casc::ShardMapConfig map_config;
  map_config.shards_per_side = options_.shards_per_side;
  map_config.world = options_.world;
  const casc::ShardMap map(instance.workers(), instance.tasks(), map_config);
  std::vector<casc::ShardProblem> shard_problems =
      executor_.BuildProblems(instance, map, delta);

  while (workspaces_.size() < shard_problems.size()) {
    workspaces_.push_back(std::make_unique<casc::BatchWorkspace>());
  }
  casc::Assignment assignment(instance);
  for (size_t s = 0; s < shard_problems.size(); ++s) {
    const casc::ShardProblem& problem = shard_problems[s];
    casc::AssignerStats stats;
    std::optional<casc::Assignment> local = casc::ShardExecutor::SolveProblem(
        problem, factory_, workspaces_[s].get(), nullptr, &stats);
    if (!local.has_value()) continue;
    if (gt_solver_ && stats.converged) {
      ++totals_.nash_checked;
      if (!casc::IsNashEquilibrium(problem.instance, *local,
                                   kNashTolerance)) {
        problems->push_back("shard " + std::to_string(s) +
                            " reported converged but is not a Nash "
                            "equilibrium");
      }
    }
    casc::ShardExecutor::FoldProblem(problem, *local, &assignment);
    workspaces_[s]->Recycle(std::move(*local));
  }

  const casc::BoundaryReconciler reconciler(options_.reconcile);
  const std::vector<casc::WorkerIndex>& boundary = map.boundary_workers();
  casc::ScoreKeeper keeper(instance);
  keeper.Sync(assignment);
  if (delta != nullptr && delta->num_seeded > 0) {
    reconciler.PassAdopt(instance, boundary, *delta, &assignment, &keeper);
  }
  casc::Stopwatch watch;
  reconciler.PassInsert(instance, boundary, &assignment, &keeper);
  totals_.pass_insert_seconds += watch.ElapsedSeconds();
  if (options_.reconcile.seed_underfilled) {
    watch.Restart();
    reconciler.PassSeed(instance, boundary, &assignment, &keeper);
    totals_.pass_seed_seconds += watch.ElapsedSeconds();
  }
  if (options_.reconcile.polish_rounds > 0) {
    watch.Restart();
    reconciler.PassPolish(instance, boundary, &assignment, &keeper);
    totals_.pass_polish_seconds += watch.ElapsedSeconds();
  }
  executor_.RecycleProblems(&shard_problems);
  return assignment;
}

CheckedSolver::CheckedSolver(casc::ShardedOptions options,
                             casc::AssignerFactory factory,
                             BatchChecker* checker)
    : engine_(std::move(options), std::move(factory)), checker_(checker) {}

casc::Assignment CheckedSolver::Solve(const casc::Instance& instance) {
  casc::Assignment assignment = engine_.Run(instance);
  checker_->Check(instance, assignment, delta_);
  return assignment;
}

}  // namespace perfbench
