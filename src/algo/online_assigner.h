#ifndef CASC_ALGO_ONLINE_ASSIGNER_H_
#define CASC_ALGO_ONLINE_ASSIGNER_H_

#include <string>

#include "algo/assigner.h"

namespace casc {

/// ONLINE baseline: the one-by-one server-assigned-task mode the paper
/// contrasts with its batch mode (Section VII, [25][28]).
///
/// Workers are processed in arrival order (ties by index), each
/// immediately and irrevocably assigned to the valid task with the
/// largest marginal gain ΔQ given the assignments made so far — no
/// batching, no reassignment, no view of future arrivals. A worker with
/// no positive gain joins a group still below B (groups only score at
/// size >= B, so otherwise no team would ever form). The gap to TPG and
/// GT quantifies the value of batch processing for CA-SC.
class OnlineAssigner : public Assigner {
 public:
  std::string Name() const override { return "ONLINE"; }
  Assignment Run(const Instance& instance) override;
};

}  // namespace casc

#endif  // CASC_ALGO_ONLINE_ASSIGNER_H_
