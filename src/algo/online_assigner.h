#ifndef CASC_ALGO_ONLINE_ASSIGNER_H_
#define CASC_ALGO_ONLINE_ASSIGNER_H_

#include <string>

#include "algo/assigner.h"

namespace casc {

/// Options for the online greedy assigner.
struct OnlineOptions {
  /// Allow a worker to join a group still below B even when the
  /// immediate ΔQ is zero (groups only produce revenue at size >= B, so
  /// without this no team would ever form). Default on.
  bool optimistic_join = true;
};

/// ONLINE baseline: the one-by-one server-assigned-task mode the paper
/// contrasts with its batch mode (Section VII, [25][28]).
///
/// Workers are processed in arrival order (ties by index), each
/// immediately and irrevocably assigned to the valid task with the
/// largest marginal gain ΔQ given the assignments made so far — no
/// batching, no reassignment, no view of future arrivals. The gap to TPG
/// and GT quantifies the value of batch processing for CA-SC.
class OnlineAssigner : public Assigner {
 public:
  explicit OnlineAssigner(OnlineOptions options = {});

  std::string Name() const override { return "ONLINE"; }
  Assignment Run(const Instance& instance) override;

 private:
  OnlineOptions options_;
};

}  // namespace casc

#endif  // CASC_ALGO_ONLINE_ASSIGNER_H_
