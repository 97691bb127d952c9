#ifndef CASC_MODEL_OBJECTIVE_MODEL_H_
#define CASC_MODEL_OBJECTIVE_MODEL_H_

#include <span>
#include <string_view>

#include "model/task.h"
#include "model/worker.h"

namespace casc {

class Instance;

/// Pluggable per-task scoring model: the seam that turns the one-paper
/// CA-SC solver into a family of dispatch products (multi-skill,
/// specialty, fairness — the ROADMAP's "scenario diversity" axis).
///
/// An objective decomposes into three hooks:
///   1. a *cooperation term* — the Eq. 2 pair-sum score, shared by every
///      variant and computed by the engine (ScoreKeeper pair sums, TPG
///      heaps, the exact B&B all precompute it);
///   2. a *group-feasibility predicate* — capacity and the B threshold
///      stay engine-side invariants; variants add their own gate (skill
///      coverage here) which zeroes the score of an infeasible group and
///      optionally filters candidate joins in best-response scans;
///   3. an optional *regularizer* — an additive per-task adjustment
///      (e.g. a fairness penalty).
///
/// ### Bound admissibility (proof obligation)
///
/// The engine's one upper bound — the exact B&B's Lemma V.2 per-worker
/// quality ceilings (ExactAssigner) — bounds the *cooperation term*. It
/// remains admissible for a variant if and only if, for every group G:
///
///     ScoreGroup(G)  <=  CoopTerm(PairSum(G), |G|)
///
/// i.e. the variant only ever *discounts* the cooperation term (gating
/// to zero, non-positive regularizer). A variant that can exceed it
/// (positive regularizer, bonuses) must widen those ceilings before it
/// runs through ExactAssigner. DESIGN.md section 13 carries the full
/// contract.
///
/// ### Membership conventions (present-aware hooks)
///
/// ScoreKeeper mutations are legal before *or* after the matching
/// Assignment mutation, so a hook can never assume `members` already
/// reflects the change it is scoring. Instead it receives the live span
/// plus two idempotent corrections:
///   - `extra`:   worker joining the group (skip if already present,
///                then count exactly once), or kNoWorker;
///   - `without`: worker leaving the group (skip if present), or
///                kNoWorker.
/// Derived state must be computable from the corrected *set* — e.g.
/// skill coverage is a bitwise OR, which is idempotent by construction.
/// `size` and `pair_sum` are authoritative for the corrected group; use
/// them, not members.size(), for the cooperation term.
///
/// Implementations must be stateless and immutable: one shared const
/// instance is read concurrently by every solver thread and shard.
class ObjectiveModel {
 public:
  virtual ~ObjectiveModel() = default;

  /// Stable identity, used for ShardProblem wire round-trips, registry
  /// lookup, and metrics. Never contains spaces.
  virtual std::string_view Id() const = 0;

  /// The full per-task score of the (corrected) group: cooperation term
  /// gated by feasibility, plus the regularizer. `pair_sum` and `size`
  /// describe the corrected group (see membership conventions).
  /// Precondition: 0 <= size <= capacity(t); the caller handles
  /// over-capacity crowding via BestSubset before scoring.
  virtual double ScoreGroup(const Instance& instance, TaskIndex t,
                            std::span<const WorkerIndex> members,
                            WorkerIndex extra, WorkerIndex without,
                            double pair_sum, int size) const = 0;

  /// Variant-specific feasibility of the corrected group (capacity and
  /// the B threshold are engine-side; do NOT re-check them here). An
  /// infeasible group scores 0 but remains a legal assignment state —
  /// partially staffed groups are how feasible ones get built.
  virtual bool GroupFeasible(const Instance& instance, TaskIndex t,
                             std::span<const WorkerIndex> members,
                             WorkerIndex extra, WorkerIndex without) const;

  /// Additive per-task adjustment on top of the gated cooperation term.
  /// Must be <= 0 (see the bound admissibility obligation above).
  /// Default: 0.
  virtual double Regularizer(const Instance& instance, TaskIndex t,
                             std::span<const WorkerIndex> members,
                             WorkerIndex extra, WorkerIndex without,
                             int size) const;

  /// May worker `w` join task `t`'s current group (before capacity
  /// crowding is considered)? Best-response scans, the online assigner,
  /// the exact B&B and the reconciler's insert pass consult this to
  /// restrict the deviation strategy space; IsNashEquilibrium uses the
  /// same filter so equilibrium is defined over feasible deviations.
  /// Must be consistent under the scan: depends only on (t, current
  /// members, w). Default: true.
  virtual bool JoinFeasible(const Instance& instance, TaskIndex t,
                            std::span<const WorkerIndex> members,
                            WorkerIndex w) const;

  /// True when JoinFeasible is constantly true, letting hot scan loops
  /// skip the virtual call entirely (the default objective pays zero
  /// dispatch on the GT hot path beyond the score hook itself).
  virtual bool AlwaysJoinFeasible() const { return true; }

 protected:
  /// The shared Eq. 2 cooperation term: 0 below the B threshold, else
  /// pair_sum / (size - 1). Bit-identical to the pre-interface scoring
  /// (same two FP operations); variants compose it with their gates.
  double CoopTerm(const Instance& instance, double pair_sum, int size) const;
};

/// The paper's CA-SC objective (Eq. 2/3/4) behind the interface: the
/// cooperation term with no extra feasibility and no regularizer. The
/// hot hooks ignore membership, so scoring reduces to exactly the
/// pre-interface arithmetic — the differential fuzz in objective_test
/// holds it to byte-identical assignments.
class CascObjective final : public ObjectiveModel {
 public:
  std::string_view Id() const override { return "casc"; }
  double ScoreGroup(const Instance& instance, TaskIndex t,
                    std::span<const WorkerIndex> members, WorkerIndex extra,
                    WorkerIndex without, double pair_sum,
                    int size) const override;
};

/// Multi-skill variant (Cheng et al., Task Assignment on Multi-Skill
/// Oriented Spatial Crowdsourcing): a task's group must collectively
/// cover Task::required_skills or it scores 0, and best-response scans
/// only admit joins that keep the group on a covering trajectory (the
/// newcomer contributes a missing skill, or coverage is already done).
/// Tasks with an empty requirement — and therefore every pre-skill
/// workload — score and assign exactly like CascObjective.
class MultiSkillObjective final : public ObjectiveModel {
 public:
  std::string_view Id() const override { return "multiskill"; }
  double ScoreGroup(const Instance& instance, TaskIndex t,
                    std::span<const WorkerIndex> members, WorkerIndex extra,
                    WorkerIndex without, double pair_sum,
                    int size) const override;
  bool GroupFeasible(const Instance& instance, TaskIndex t,
                     std::span<const WorkerIndex> members, WorkerIndex extra,
                     WorkerIndex without) const override;
  bool JoinFeasible(const Instance& instance, TaskIndex t,
                    std::span<const WorkerIndex> members,
                    WorkerIndex w) const override;
  bool AlwaysJoinFeasible() const override { return false; }

  /// Union of the group's skills after the extra/without corrections
  /// (idempotent: safe whether or not the corrections already landed).
  static SkillMask CoveredSkills(const Instance& instance,
                                 std::span<const WorkerIndex> members,
                                 WorkerIndex extra, WorkerIndex without);
};

/// The shared immutable instances behind the registry.
const CascObjective& GetCascObjective();
const MultiSkillObjective& GetMultiSkillObjective();

/// Registry lookup by Id(). Returns nullptr for unknown names (callers
/// own the error message — the service layer CHECKs with the offending
/// name, the net layer treats it as a malformed problem).
const ObjectiveModel* ObjectiveByName(std::string_view name);

/// The process-wide default objective: CASC_OBJECTIVE=<id> if set (the
/// kill-switch-table knob; aborts on an unknown id), else CascObjective.
/// Read once and cached; freshly constructed Instances start on it.
const ObjectiveModel& ProcessDefaultObjective();

}  // namespace casc

#endif  // CASC_MODEL_OBJECTIVE_MODEL_H_
