#include "model/objective_model.h"

#include <cstdlib>

#include "common/check.h"
#include "model/instance.h"

namespace casc {

bool ObjectiveModel::GroupFeasible(const Instance& instance, TaskIndex t,
                                   std::span<const WorkerIndex> members,
                                   WorkerIndex extra,
                                   WorkerIndex without) const {
  (void)instance;
  (void)t;
  (void)members;
  (void)extra;
  (void)without;
  return true;
}

double ObjectiveModel::Regularizer(const Instance& instance, TaskIndex t,
                                   std::span<const WorkerIndex> members,
                                   WorkerIndex extra, WorkerIndex without,
                                   int size) const {
  (void)instance;
  (void)t;
  (void)members;
  (void)extra;
  (void)without;
  (void)size;
  return 0.0;
}

bool ObjectiveModel::JoinFeasible(const Instance& instance, TaskIndex t,
                                  std::span<const WorkerIndex> members,
                                  WorkerIndex w) const {
  (void)instance;
  (void)t;
  (void)members;
  (void)w;
  return true;
}

double ObjectiveModel::CoopTerm(const Instance& instance, double pair_sum,
                                int size) const {
  if (size < instance.min_group_size()) return 0.0;
  return pair_sum / (size - 1);
}

double CascObjective::ScoreGroup(const Instance& instance, TaskIndex t,
                                 std::span<const WorkerIndex> members,
                                 WorkerIndex extra, WorkerIndex without,
                                 double pair_sum, int size) const {
  (void)t;
  (void)members;
  (void)extra;
  (void)without;
  return CoopTerm(instance, pair_sum, size);
}

SkillMask MultiSkillObjective::CoveredSkills(
    const Instance& instance, std::span<const WorkerIndex> members,
    WorkerIndex extra, WorkerIndex without) {
  const std::span<const SkillMask> skills = instance.worker_skills();
  SkillMask covered = 0;
  for (const WorkerIndex member : members) {
    if (member == without || member == extra) continue;
    covered |= skills[static_cast<size_t>(member)];
  }
  if (extra != kNoWorker) covered |= skills[static_cast<size_t>(extra)];
  return covered;
}

double MultiSkillObjective::ScoreGroup(const Instance& instance, TaskIndex t,
                                       std::span<const WorkerIndex> members,
                                       WorkerIndex extra, WorkerIndex without,
                                       double pair_sum, int size) const {
  if (!GroupFeasible(instance, t, members, extra, without)) return 0.0;
  return CoopTerm(instance, pair_sum, size);
}

bool MultiSkillObjective::GroupFeasible(const Instance& instance, TaskIndex t,
                                        std::span<const WorkerIndex> members,
                                        WorkerIndex extra,
                                        WorkerIndex without) const {
  const SkillMask required =
      instance.task_required_skills()[static_cast<size_t>(t)];
  if (required == 0) return true;
  const SkillMask covered =
      CoveredSkills(instance, members, extra, without);
  return (covered & required) == required;
}

bool MultiSkillObjective::JoinFeasible(const Instance& instance, TaskIndex t,
                                       std::span<const WorkerIndex> members,
                                       WorkerIndex w) const {
  const SkillMask required =
      instance.task_required_skills()[static_cast<size_t>(t)];
  if (required == 0) return true;
  const SkillMask covered =
      CoveredSkills(instance, members, kNoWorker, kNoWorker);
  const SkillMask missing = required & ~covered;
  if (missing == 0) return true;  // covered: join freely for quality
  // Still short of coverage: only admit contributors, so capacity is
  // never spent on a worker that cannot move the group toward a
  // non-zero score.
  const SkillMask held = instance.worker_skills()[static_cast<size_t>(w)];
  return (held & missing) != 0;
}

const CascObjective& GetCascObjective() {
  static const CascObjective objective;
  return objective;
}

const MultiSkillObjective& GetMultiSkillObjective() {
  static const MultiSkillObjective objective;
  return objective;
}

const ObjectiveModel* ObjectiveByName(std::string_view name) {
  if (name == GetCascObjective().Id()) return &GetCascObjective();
  if (name == GetMultiSkillObjective().Id()) {
    return &GetMultiSkillObjective();
  }
  return nullptr;
}

const ObjectiveModel& ProcessDefaultObjective() {
  static const ObjectiveModel* const chosen = [] {
    const char* env = std::getenv("CASC_OBJECTIVE");
    if (env == nullptr || env[0] == '\0') {
      return static_cast<const ObjectiveModel*>(&GetCascObjective());
    }
    const ObjectiveModel* named = ObjectiveByName(env);
    CASC_CHECK(named != nullptr)
        << "CASC_OBJECTIVE names an unknown objective: " << env;
    return named;
  }();
  return *chosen;
}

}  // namespace casc
