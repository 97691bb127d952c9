#include "sim/rating_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace casc {

RatingModel::RatingModel(CooperationMatrix ground_truth,
                         double noise_stddev, uint64_t seed)
    : ground_truth_(std::move(ground_truth)),
      noise_stddev_(noise_stddev),
      rng_(seed) {
  CASC_CHECK_GE(noise_stddev, 0.0);
}

double RatingModel::TrueTeamQuality(const std::vector<int>& team) const {
  CASC_CHECK_GE(team.size(), 2u);
  double total = 0.0;
  int pairs = 0;
  for (size_t a = 0; a < team.size(); ++a) {
    for (size_t b = a + 1; b < team.size(); ++b) {
      // Unordered pair quality: the mean of both directions.
      total += ground_truth_.Mutual(team[a], team[b]) / 2.0;
      ++pairs;
    }
  }
  return total / pairs;
}

double RatingModel::RateTeam(const std::vector<int>& team) {
  const double truth = TrueTeamQuality(team);
  const double noisy = truth + rng_.Gaussian(0.0, noise_stddev_);
  return std::clamp(noisy, 0.0, 1.0);
}

QualityLearningLoop::QualityLearningLoop(CooperationMatrix ground_truth,
                                         double alpha, double omega,
                                         double noise_stddev, uint64_t seed)
    : rating_model_(std::move(ground_truth), noise_stddev, seed),
      history_(rating_model_.ground_truth().num_workers(), alpha, omega) {}

CooperationMatrix QualityLearningLoop::BelievedQualities() const {
  return history_.ToMatrix();
}

WaveResult QualityLearningLoop::RecordWave(
    const std::vector<std::vector<int>>& finished_teams) {
  WaveResult result;
  const CooperationMatrix believed = BelievedQualities();
  const CooperationMatrix& truth = rating_model_.ground_truth();
  for (const auto& team : finished_teams) {
    if (team.size() < 2) continue;
    // Score contributions under both matrices (ordered-pair sums, the
    // Equation-2 numerator normalized by |team| - 1).
    double believed_sum = 0.0, actual_sum = 0.0;
    for (const int i : team) {
      for (const int k : team) {
        if (i == k) continue;
        believed_sum += believed.Quality(i, k);
        actual_sum += truth.Quality(i, k);
      }
    }
    result.believed_score +=
        believed_sum / (static_cast<double>(team.size()) - 1.0);
    result.actual_score +=
        actual_sum / (static_cast<double>(team.size()) - 1.0);
    history_.RecordTask(team, rating_model_.RateTeam(team));
    ++result.teams_rated;
  }
  result.estimation_error = EstimationError();
  return result;
}

double QualityLearningLoop::EstimationError() const {
  const CooperationMatrix believed = BelievedQualities();
  const CooperationMatrix& truth = rating_model_.ground_truth();
  const int m = truth.num_workers();
  if (m < 2) return 0.0;
  double total = 0.0;
  int64_t pairs = 0;
  for (int i = 0; i < m; ++i) {
    for (int k = 0; k < m; ++k) {
      if (i == k) continue;
      total += std::abs(believed.Quality(i, k) - truth.Quality(i, k));
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

}  // namespace casc
