#include "model/objective.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/check.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// BestSubset enumerates while C(|group|, k) stays below this count.
constexpr int64_t kEnumerationLimit = 20000;

/// Number of k-subsets of an n-set, saturating at `limit`.
int64_t BinomialCapped(int n, int k, int64_t limit) {
  if (k < 0 || k > n) return 0;
  k = std::min(k, n - k);
  int64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
    if (result >= limit) return limit;
  }
  return result;
}

/// Enumerates all k-subsets, tracking the best PairSum.
void EnumerateSubsets(const CooperationMatrix& coop,
                      std::span<const WorkerIndex> group, int k,
                      size_t start, std::vector<WorkerIndex>* current,
                      double current_sum, double* best_sum,
                      std::vector<WorkerIndex>* best) {
  if (static_cast<int>(current->size()) == k) {
    if (current_sum > *best_sum) {
      *best_sum = current_sum;
      *best = *current;
    }
    return;
  }
  const int needed = k - static_cast<int>(current->size());
  for (size_t i = start; i + static_cast<size_t>(needed) <= group.size();
       ++i) {
    const WorkerIndex w = group[i];
    double added = 0.0;
    for (const WorkerIndex member : *current) {
      added += coop.Mutual(member, w);
    }
    current->push_back(w);
    EnumerateSubsets(coop, group, k, i + 1, current, current_sum + added,
                     best_sum, best);
    current->pop_back();
  }
}

}  // namespace

std::vector<WorkerIndex> BestSubset(const CooperationMatrix& coop,
                                    std::span<const WorkerIndex> group,
                                    int k) {
  CASC_CHECK_GE(k, 0);
  CASC_CHECK_LE(k, static_cast<int>(group.size()));
  if (k == static_cast<int>(group.size())) {
    return std::vector<WorkerIndex>(group.begin(), group.end());
  }
  if (k == 0) return {};

  if (BinomialCapped(static_cast<int>(group.size()), k,
                     kEnumerationLimit) < kEnumerationLimit) {
    if (k == static_cast<int>(group.size()) - 1 &&
        group.size() <= kCrowdTableGroup) {
      const WorkerIndex evicted =
          DropOneCrowding(coop, group.first(group.size() - 1), group.back())
              .evicted;
      std::vector<WorkerIndex> best;
      best.reserve(static_cast<size_t>(k));
      for (const WorkerIndex member : group) {
        if (member != evicted) best.push_back(member);
      }
      return best;
    }
    std::vector<WorkerIndex> best, current;
    double best_sum = -1.0;
    EnumerateSubsets(coop, group, k, 0, &current, 0.0, &best_sum, &best);
    return best;
  }

  // Greedy backward elimination: drop the member with the smallest total
  // affinity (incoming + outgoing) to the remaining members. Each
  // member's affinity is computed once up front (O(g^2)) and decremented
  // when a member is dropped, so every drop costs O(g) instead of the
  // naive O(g^2) rescan.
  std::vector<WorkerIndex> remaining(group.begin(), group.end());
  std::vector<double> affinity(remaining.size(), 0.0);
  for (size_t i = 0; i < remaining.size(); ++i) {
    for (size_t j = 0; j < remaining.size(); ++j) {
      if (i == j) continue;
      affinity[i] += coop.Mutual(remaining[i], remaining[j]);
    }
  }
  while (static_cast<int>(remaining.size()) > k) {
    size_t worst_index = 0;
    double worst_affinity = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (affinity[i] < worst_affinity) {
        worst_affinity = affinity[i];
        worst_index = i;
      }
    }
    const WorkerIndex worst = remaining[worst_index];
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(worst_index));
    affinity.erase(affinity.begin() + static_cast<ptrdiff_t>(worst_index));
    for (size_t i = 0; i < remaining.size(); ++i) {
      affinity[i] -= coop.Mutual(remaining[i], worst);
    }
  }
  return remaining;
}

void FillCrowdTable(const CooperationMatrix& coop,
                    std::span<const WorkerIndex> members,
                    std::span<double> table) {
  const size_t m = members.size();
  CASC_CHECK_GE(table.size(), CrowdTableSize(m));
  // pair[j * m + i] (i < j) = Mutual(members[i], members[j]), the exact
  // sum EnumerateSubsets and PairSum add; kept[d] = EnumerateSubsets'
  // running sum once positions 0..d-1 are all in the subset.
  double* pair = table.data();
  double* kept = pair + m * m;
  double* partial = kept + m + 1;
  for (size_t j = 1; j < m; ++j) {
    coop.MutualRow(members[j], members.first(j),
                   std::span<double>(pair + j * m, j));
  }
  kept[0] = 0.0;
  for (size_t d = 0; d < m; ++d) {
    double added = 0.0;
    for (size_t i = 0; i < d; ++i) added += pair[d * m + i];
    kept[d + 1] = kept[d] + added;
  }
  // Leaving out member d: kept[d], then each later member row without d,
  // each row summed from 0.0. Only the newcomer's row is still missing.
  for (size_t d = 0; d < m; ++d) {
    double sum = kept[d];
    for (size_t j = d + 1; j < m; ++j) {
      double added = 0.0;
      for (size_t i = 0; i < j; ++i) {
        if (i != d) added += pair[j * m + i];
      }
      sum += added;
    }
    partial[d] = sum;
  }
}

CrowdOut CrowdFromTable(std::span<const double> table,
                        std::span<const WorkerIndex> members,
                        std::span<const double> row, WorkerIndex newcomer) {
  const size_t m = members.size();
  const size_t n = m + 1;
  CASC_CHECK_GE(table.size(), CrowdTableSize(m));
  CASC_CHECK_EQ(row.size(), m);
  const double* pair = table.data();
  const double* kept = pair + m * m;
  const double* partial = kept + m + 1;

  // Lexicographic order of the (n-1)-subsets leaves out position n-1 (the
  // newcomer) first and position 0 last; the first strict maximum wins.
  double best_sum = -1.0;
  size_t drop = n;
  for (size_t d = n; d-- > 0;) {
    double sum = kept[m];
    if (d < m) {
      double added = 0.0;
      for (size_t i = 0; i < m; ++i) {
        if (i != d) added += row[i];
      }
      sum = partial[d] + added;
    }
    if (sum > best_sum) {
      best_sum = sum;
      drop = d;
    }
  }
  CASC_CHECK_LT(drop, n) << "DropOneCrowding: negative pair qualities";

  // The survivors' PairSum, in its row-major accumulation order.
  double pair_sum = 0.0;
  for (size_t a = 0; a < n; ++a) {
    if (a == drop) continue;
    for (size_t b = a + 1; b < n; ++b) {
      if (b != drop) pair_sum += b == m ? row[a] : pair[b * m + a];
    }
  }
  return {drop == m ? newcomer : members[drop], pair_sum};
}

CrowdOut DropOneCrowding(const CooperationMatrix& coop,
                         std::span<const WorkerIndex> members,
                         WorkerIndex newcomer) {
  const size_t n = members.size() + 1;
  CASC_CHECK_GE(n, 2u);
  if (n > kCrowdTableGroup) {
    // Beyond the stack table BestSubset enumerates (or goes greedy) itself.
    std::vector<WorkerIndex> group(members.begin(), members.end());
    group.push_back(newcomer);
    const std::vector<WorkerIndex> best =
        BestSubset(coop, group, static_cast<int>(n) - 1);
    size_t at = 0;
    while (at < best.size() && best[at] == group[at]) ++at;
    return {group[at], coop.PairSum(best)};
  }
  std::array<double, CrowdTableSize(kCrowdTableGroup - 1)> table;
  std::array<double, kCrowdTableGroup> row;
  const std::span<double> newcomer_row(row.data(), members.size());
  FillCrowdTable(coop, members, table);
  coop.MutualRow(newcomer, members, newcomer_row);
  return CrowdFromTable(table, members, newcomer_row, newcomer);
}

double GroupScore(const Instance& instance, TaskIndex t,
                  std::span<const WorkerIndex> group) {
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, instance.num_tasks());
  const int size = static_cast<int>(group.size());
  if (size < instance.min_group_size()) return 0.0;
  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  const CooperationMatrix& coop = instance.coop();
  const ObjectiveModel& objective = instance.objective();
  if (size <= capacity) {
    return objective.ScoreGroup(instance, t, group, kNoWorker, kNoWorker,
                                coop.PairSum(group), size);
  }
  // Over capacity: only the best a_j-subset is paid (Equation 2's note).
  // Subset selection maximizes the cooperation term regardless of the
  // objective — the crowding mechanism is engine-side — but the chosen
  // subset is *scored* by the objective (a skill-gated subset can come
  // out at 0 if the crowd-out dropped the last holder of a skill).
  const std::vector<WorkerIndex> best = BestSubset(coop, group, capacity);
  return objective.ScoreGroup(instance, t, best, kNoWorker, kNoWorker,
                              coop.PairSum(best), capacity);
}

double MarginalOfMember(const Instance& instance, TaskIndex t,
                        std::span<const WorkerIndex> group, WorkerIndex w) {
  CASC_CHECK(std::find(group.begin(), group.end(), w) != group.end())
      << "MarginalOfMember: worker " << w << " not in group";
  std::vector<WorkerIndex> without;
  without.reserve(group.size() - 1);
  for (const WorkerIndex member : group) {
    if (member != w) without.push_back(member);
  }
  return GroupScore(instance, t, group) - GroupScore(instance, t, without);
}

double GainOfJoining(const Instance& instance, TaskIndex t,
                     std::span<const WorkerIndex> group, WorkerIndex w,
                     std::vector<WorkerIndex>* scratch) {
  CASC_CHECK(std::find(group.begin(), group.end(), w) == group.end())
      << "GainOfJoining: worker " << w << " already in group";
  std::vector<WorkerIndex> local;
  std::vector<WorkerIndex>& with = scratch != nullptr ? *scratch : local;
  with.assign(group.begin(), group.end());
  with.push_back(w);
  return GroupScore(instance, t, with) - GroupScore(instance, t, group);
}

void JoinGainCache::Reset(const Instance& instance) {
  entries_.assign(static_cast<size_t>(instance.num_tasks()), Entry{});
  values_.clear();
}

double JoinGainCache::Gain(const Instance& instance, TaskIndex t,
                           std::span<const WorkerIndex> group, WorkerIndex w,
                           uint64_t version) {
  const size_t size = group.size();
  CASC_CHECK_LT(static_cast<int>(size),
                instance.tasks()[static_cast<size_t>(t)].capacity)
      << "JoinGainCache prices joins into open tasks only";
  const CooperationMatrix& coop = instance.coop();
  Entry& entry = entries_[static_cast<size_t>(t)];
  if (!entry.filled || entry.version != version) {
    const size_t pairs = size * (size - 1) / 2;  // 0 for size 0
    if (pairs > entry.reserved) {
      entry.offset = values_.size();
      entry.reserved = std::max(pairs, 2 * entry.reserved);
      values_.resize(entry.offset + entry.reserved);
    }
    double* value = values_.data() + entry.offset;
    for (size_t a = 0; a < size; ++a) {
      for (size_t b = a + 1; b < size; ++b) {
        *value++ = coop.Mutual(group[a], group[b]);
      }
    }
    entry.size = size;
    entry.version = version;
    entry.filled = true;
    entry.score = GroupScore(instance, t, group);
  }
  CASC_CHECK_EQ(entry.size, size)
      << "JoinGainCache: task " << t << " changed without a new version";
  if (static_cast<int>(size) + 1 < instance.min_group_size()) {
    return 0.0 - entry.score;
  }
  const double* value = values_.data() + entry.offset;
  double pair_sum = 0.0;
  for (size_t a = 0; a < size; ++a) {
    for (size_t b = a + 1; b < size; ++b) pair_sum += *value++;
    pair_sum += coop.Mutual(group[a], w);
  }
  return instance.objective().ScoreGroup(instance, t, group, w, kNoWorker,
                                         pair_sum,
                                         static_cast<int>(size) + 1) -
         entry.score;
}

double TotalScore(const Instance& instance, const Assignment& assignment) {
  double total = 0.0;
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    total += GroupScore(instance, t, assignment.GroupOf(t));
  }
  return total;
}

}  // namespace casc
