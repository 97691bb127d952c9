#include "service/shard_map.h"

#include <algorithm>

#include "common/check.h"

namespace casc {

ShardMap::ShardMap(const std::vector<Worker>& workers,
                   const std::vector<Task>& tasks,
                   const ShardMapConfig& config)
    : config_(config) {
  CASC_CHECK_GE(config.shards_per_side, 1);
  CASC_CHECK(!config.world.IsEmpty()) << "shard world must be non-empty";
  CASC_CHECK_GT(config.world.max_x, config.world.min_x);
  CASC_CHECK_GT(config.world.max_y, config.world.min_y);
  const int side = config_.shards_per_side;
  cell_width_ = (config_.world.max_x - config_.world.min_x) / side;
  cell_height_ = (config_.world.max_y - config_.world.min_y) / side;

  shard_tasks_.resize(static_cast<size_t>(num_shards()));
  interior_workers_.resize(static_cast<size_t>(num_shards()));
  home_workers_.resize(static_cast<size_t>(num_shards()));
  is_boundary_.assign(workers.size(), false);

  for (size_t t = 0; t < tasks.size(); ++t) {
    shard_tasks_[static_cast<size_t>(ShardOfPoint(tasks[t].location))]
        .push_back(static_cast<TaskIndex>(t));
  }
  for (size_t w = 0; w < workers.size(); ++w) {
    const Worker& worker = workers[w];
    home_workers_[static_cast<size_t>(ShardOfPoint(worker.location))]
        .push_back(static_cast<WorkerIndex>(w));
    if (!config_.world.Contains(worker.location)) {
      is_boundary_[w] = true;
      boundary_workers_.push_back(static_cast<WorkerIndex>(w));
      continue;
    }
    // Classify by the reach disk's bounding-box cell range. CellOf is
    // monotone, so a single-cell range proves every point within radius
    // r of the worker — in particular every valid task location — maps
    // to that same cell. (The disk-refined ShardsTouched below could
    // shave corner cells, but only this interval argument is robust to
    // floating-point edge cases, and the invariant "interior worker =>
    // all valid tasks in its shard" is what the executor builds on.)
    const double r = std::max(worker.radius, 0.0);
    const int x_lo =
        CellOf(worker.location.x - r, config_.world.min_x, cell_width_);
    const int x_hi =
        CellOf(worker.location.x + r, config_.world.min_x, cell_width_);
    const int y_lo =
        CellOf(worker.location.y - r, config_.world.min_y, cell_height_);
    const int y_hi =
        CellOf(worker.location.y + r, config_.world.min_y, cell_height_);
    if (x_lo == x_hi && y_lo == y_hi) {
      interior_workers_[static_cast<size_t>(
                            y_lo * config_.shards_per_side + x_lo)]
          .push_back(static_cast<WorkerIndex>(w));
      ++num_interior_workers_;
    } else {
      is_boundary_[w] = true;
      boundary_workers_.push_back(static_cast<WorkerIndex>(w));
    }
  }
}

int ShardMap::CellOf(double coord, double lo, double width) const {
  // Clamp in double before the cast: converting a finite double outside
  // int's range is undefined, and a NaN coordinate must land in a cell
  // too, so it takes cell 0.
  const double pos = (coord - lo) / width;
  if (!(pos > 0.0)) return 0;
  const int last = config_.shards_per_side - 1;
  if (pos >= static_cast<double>(last)) return last;
  return static_cast<int>(pos);
}

Rect ShardMap::ShardRect(int shard) const {
  CASC_CHECK_GE(shard, 0);
  CASC_CHECK_LT(shard, num_shards());
  const int cx = shard % config_.shards_per_side;
  const int cy = shard / config_.shards_per_side;
  Rect rect;
  rect.min_x = config_.world.min_x + cx * cell_width_;
  rect.min_y = config_.world.min_y + cy * cell_height_;
  rect.max_x = cx + 1 == config_.shards_per_side ? config_.world.max_x
                                                 : rect.min_x + cell_width_;
  rect.max_y = cy + 1 == config_.shards_per_side ? config_.world.max_y
                                                 : rect.min_y + cell_height_;
  return rect;
}

int ShardMap::ShardOfPoint(const Point& p) const {
  const int cx = CellOf(p.x, config_.world.min_x, cell_width_);
  const int cy = CellOf(p.y, config_.world.min_y, cell_height_);
  return cy * config_.shards_per_side + cx;
}

std::vector<int> ShardMap::ShardsTouched(const Point& center,
                                         double radius) const {
  const double r = std::max(radius, 0.0);
  const int x_lo = CellOf(center.x - r, config_.world.min_x, cell_width_);
  const int x_hi = CellOf(center.x + r, config_.world.min_x, cell_width_);
  const int y_lo = CellOf(center.y - r, config_.world.min_y, cell_height_);
  const int y_hi = CellOf(center.y + r, config_.world.min_y, cell_height_);
  std::vector<int> touched;
  const double r2 = r * r;
  for (int cy = y_lo; cy <= y_hi; ++cy) {
    for (int cx = x_lo; cx <= x_hi; ++cx) {
      const int shard = cy * config_.shards_per_side + cx;
      if (ShardRect(shard).MinSquaredDistance(center) <= r2) {
        touched.push_back(shard);
      }
    }
  }
  return touched;
}

const std::vector<TaskIndex>& ShardMap::TasksOf(int shard) const {
  CASC_CHECK_GE(shard, 0);
  CASC_CHECK_LT(shard, num_shards());
  return shard_tasks_[static_cast<size_t>(shard)];
}

const std::vector<WorkerIndex>& ShardMap::InteriorWorkersOf(
    int shard) const {
  CASC_CHECK_GE(shard, 0);
  CASC_CHECK_LT(shard, num_shards());
  return interior_workers_[static_cast<size_t>(shard)];
}

const std::vector<WorkerIndex>& ShardMap::HomeWorkersOf(int shard) const {
  CASC_CHECK_GE(shard, 0);
  CASC_CHECK_LT(shard, num_shards());
  return home_workers_[static_cast<size_t>(shard)];
}

ShardLoadStats ShardMap::LoadStats() const {
  ShardLoadStats stats;
  stats.workers_per_shard.reserve(home_workers_.size());
  stats.tasks_per_shard.reserve(shard_tasks_.size());
  for (const auto& workers : home_workers_) {
    const int count = static_cast<int>(workers.size());
    stats.workers_per_shard.push_back(count);
    stats.max_shard_workers = std::max(stats.max_shard_workers, count);
  }
  for (const auto& tasks : shard_tasks_) {
    const int count = static_cast<int>(tasks.size());
    stats.tasks_per_shard.push_back(count);
    stats.max_shard_tasks = std::max(stats.max_shard_tasks, count);
  }
  stats.interior_workers = num_interior_workers_;
  stats.boundary_workers = static_cast<int>(boundary_workers_.size());
  return stats;
}

}  // namespace casc
