#ifndef CASC_KERNEL_AFFINITY_KERNELS_H_
#define CASC_KERNEL_AFFINITY_KERNELS_H_

#include <cstdint>

namespace casc {

/// Gathered affinity reductions over rows of a CoopTile-style matrix.
/// Every kernel implements one canonical reduction order:
///
///   lanes[j % 4] += v_j   for j = 0..count-1 ascending,
///   result = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
///
/// Four independent accumulators keep the adds off one serial dependency
/// chain. Callers that mix kernel and non-kernel paths (ScoreKeeper's
/// no-tile fallback) must reproduce this exact order themselves.

/// Sum of row[idx[j]] for j in [0, count). `row` is one (double) tile
/// row; `idx` holds distinct in-range column indices.
double RowSumKernel(const double* row, const int* idx, int count);

/// Sum of tile[idx[a]*stride + idx[b]] over all unordered pairs a < b.
/// The outer index a advances sequentially; each inner suffix
/// idx[a+1..count-1] is reduced in the canonical lane order, so the
/// result equals the sequential sum of per-`a` RowSumKernel calls.
/// `idx` must hold distinct ids (the symmetric tile has a zero
/// diagonal, but a duplicated id would silently add its pair affinity).
double PairSumKernel(const double* tile, int64_t stride, const int* idx,
                     int count);

/// Batched RowSumKernel over one shared row: out[g] =
/// RowSumKernel(row, group_ptrs[g], group_lens[g]) for g in
/// [0, num_groups). Exists so ScoreKeeper can score every candidate
/// group of one worker with a single call.
void RowSumMany(const double* row, const int* const* group_ptrs,
                const int* group_lens, int num_groups, double* out);

}  // namespace casc

#endif  // CASC_KERNEL_AFFINITY_KERNELS_H_
