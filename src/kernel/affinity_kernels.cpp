#include "kernel/affinity_kernels.h"

#include <cmath>
#include <limits>

namespace casc {

double RowSumKernel(const double* row, const int* idx, int count) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int j = 0;
  for (; j + 4 <= count; j += 4) {
    l0 += row[idx[j]];
    l1 += row[idx[j + 1]];
    l2 += row[idx[j + 2]];
    l3 += row[idx[j + 3]];
  }
  // Tail elements keep their lane: element j+k lands in lane k.
  if (j < count) l0 += row[idx[j]];
  if (j + 1 < count) l1 += row[idx[j + 1]];
  if (j + 2 < count) l2 += row[idx[j + 2]];
  return (l0 + l2) + (l1 + l3);
}

double PairSumKernel(const double* tile, int64_t stride, const int* idx,
                     int count) {
  double total = 0.0;
  for (int a = 0; a + 1 < count; ++a) {
    const double* row = tile + static_cast<int64_t>(idx[a]) * stride;
    total += RowSumKernel(row, idx + a + 1, count - a - 1);
  }
  return total;
}

void RowSumMany(const double* row, const int* const* group_ptrs,
                const int* group_lens, int num_groups, double* out) {
  for (int g = 0; g < num_groups; ++g) {
    out[g] = RowSumKernel(row, group_ptrs[g], group_lens[g]);
  }
}

double RowSumFloatUp(const float* row, const int* idx, int count) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  int j = 0;
  for (; j + 4 <= count; j += 4) {
    l0 += static_cast<double>(row[idx[j]]);
    l1 += static_cast<double>(row[idx[j + 1]]);
    l2 += static_cast<double>(row[idx[j + 2]]);
    l3 += static_cast<double>(row[idx[j + 3]]);
  }
  if (j < count) l0 += static_cast<double>(row[idx[j]]);
  if (j + 1 < count) l1 += static_cast<double>(row[idx[j + 1]]);
  if (j + 2 < count) l2 += static_cast<double>(row[idx[j + 2]]);
  return (l0 + l2) + (l1 + l3);
}

float RowMaxFloat(const float* row, int count) {
  float best = 0.0f;
  for (int k = 0; k < count; ++k) {
    if (row[k] > best) best = row[k];
  }
  return best;
}

float FloatUp(double d) {
  float f = static_cast<float>(d);
  if (static_cast<double>(f) < d) {
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

}  // namespace casc
