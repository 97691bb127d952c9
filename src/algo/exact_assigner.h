#ifndef CASC_ALGO_EXACT_ASSIGNER_H_
#define CASC_ALGO_EXACT_ASSIGNER_H_

#include <string>

#include "algo/assigner.h"

namespace casc {

/// Largest instance the exact solver accepts: CA-SC is NP-hard and the
/// search is exponential in the worker count.
inline constexpr int kExactMaxWorkers = 16;

/// Exact CA-SC solver by branch-and-bound over per-worker strategy
/// choices (each worker picks a valid task with remaining capacity, or
/// idles). Pruning uses the Lemma V.2 bound: any completion's score is at
/// most the sum of q̂_{i,B} over assignable workers.
///
/// Exponential — only for the small instances used by the optimality-gap
/// tests and the EXACT-gap ablation bench. CHECK-fails beyond
/// kExactMaxWorkers.
class ExactAssigner : public Assigner {
 public:
  std::string Name() const override { return "EXACT"; }
  Assignment Run(const Instance& instance) override;
};

}  // namespace casc

#endif  // CASC_ALGO_EXACT_ASSIGNER_H_
