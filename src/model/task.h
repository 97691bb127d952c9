#ifndef CASC_MODEL_TASK_H_
#define CASC_MODEL_TASK_H_

#include <cstdint>
#include <string>

#include "geo/point.h"
#include "model/worker.h"

namespace casc {

/// A spatial task (Definition 2).
///
/// Created at `create_time` (phi_j) at `location` (l_j), a task accepts at
/// most `capacity` (a_j) workers and must be started before `deadline`
/// (tau_j). The system-wide minimum group size B lives on the Instance.
struct Task {
  int64_t id = 0;             ///< stable external identifier
  Point location;             ///< required location l_j
  double create_time = 0.0;   ///< timestamp phi_j of creation
  double deadline = 0.0;      ///< deadline tau_j
  int capacity = 0;           ///< maximum workers a_j
  SkillMask required_skills = 0;  ///< skills the assigned group must cover
};

/// The dispatch service's admission order under a batch budget: earliest
/// deadline first, ties by id. DispatchService::RunBatch and
/// StreamingPlane::Admit stable-sort under it, so both admit the same
/// prefix of the same open tasks.
inline bool EarliestDeadlineFirst(const Task& a, const Task& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.id < b.id;
}

/// Renders a one-line description for logs.
std::string ToString(const Task& task);

}  // namespace casc

#endif  // CASC_MODEL_TASK_H_
