#include "sim/streaming_plane.h"

#include <algorithm>

#include "common/check.h"
#include "common/stopwatch.h"
#include "geo/reachability.h"
#include "model/objective.h"

namespace casc {
namespace {

/// Fewest rows in a fanned-out chunk: a smaller chunk costs more to hand
/// to another thread than the work it distributes.
constexpr int64_t kMinRowsPerChunk = 256;

/// Bounded-staleness re-seed for standing tasks. A retained open task
/// whose group survived is normally clean, but fresh candidate arrivals
/// change its group-formation potential — best-response rounds alone can
/// never staff it (the kEmpty trap), so it must periodically re-enter the
/// restricted TPG re-seed. Re-marking it every batch would put the whole
/// standing frontier back in the dirty set in arrival-dense traces,
/// erasing the warm start's win; instead each task re-enters on its
/// round-robin slot (handle modulo this many batches) and only when it
/// actually accumulated fresh candidates since it was last seeded.
/// Staffing staleness is bounded by this epoch length; zero-churn batches
/// stay exactly clean (no arrivals means no counters, so no task
/// re-enters). 4 is the largest epoch that held solution quality within a
/// few percent of cold on the multiskill feasibility-gap trace (longer
/// epochs kept cutting solve time but delayed staffing enough to lose
/// deadline-tight tasks).
constexpr int kWarmRetryEpoch = 4;

}  // namespace

StreamingPlane::StreamingPlane(StreamingPlaneConfig config)
    : config_(config) {}

StreamingPlane::~StreamingPlane() = default;

void StreamingPlane::SpliceRows(int32_t first, size_t count,
                                const GridIndex& tasks, double now) {
  for (size_t i = 0; i < count; ++i) {
    const size_t handle = static_cast<size_t>(first) + i;
    const Worker& worker = worker_store_[handle];
    std::vector<int32_t>& row = rows_[handle];
    tasks.CircleQueryInto(worker.location, worker.radius, &query_);
    for (const int64_t task_handle : query_) {
      const int32_t slot = slot_of_handle_[static_cast<size_t>(task_handle)];
      const Task& task = pool_tasks_[static_cast<size_t>(slot)];
      // The circle query already established the working-area condition
      // (time-invariant). A pair failing the deadline test now can never
      // pass it later, so it is correct to never record it.
      if (!CanArriveByDeadline(worker.location, worker.speed, task.location,
                               now, task.deadline)) {
        continue;
      }
      row.push_back(static_cast<int32_t>(task_handle));
    }
  }
}

void StreamingPlane::Ingest(double now, std::span<const Worker> workers,
                            std::span<const Task> tasks) {
  ingest_stats_ = StreamingIngestStats{};
  const size_t known_workers = worker_store_.size();

  // Tasks first: new workers' rows below must see them. Pool bookkeeping
  // stays serial (it is O(arrivals) pointer pushes).
  for (const Task& task : tasks) {
    const int32_t handle = static_cast<int32_t>(slot_of_handle_.size());
    slot_of_handle_.push_back(static_cast<int32_t>(pool_tasks_.size()));
    pool_task_handles_.push_back(handle);
    pool_tasks_.push_back(task);
  }

  // Splice the arrivals into every known worker's row — including busy
  // workers, so a returning worker's row is already current. One query
  // per worker against a grid over just the arrivals keeps this
  // O(delta)-ish.
  Stopwatch phase;
  if (!tasks.empty() && known_workers > 0) {
    grid_items_.clear();
    for (size_t i = 0; i < tasks.size(); ++i) {
      const int32_t handle =
          static_cast<int32_t>(slot_of_handle_.size() - tasks.size() + i);
      grid_items_.push_back(SpatialItem{handle, tasks[i].location});
    }
    task_grid_.Build(grid_items_);
    SpliceRows(0, known_workers, task_grid_, now);
  }
  ingest_stats_.splice_seconds = phase.ElapsedSeconds();

  // New workers: one full circle query each against a grid over the open
  // pool, this window's tasks included.
  if (!workers.empty()) {
    phase.Restart();
    grid_items_.clear();
    for (size_t slot = 0; slot < pool_tasks_.size(); ++slot) {
      grid_items_.push_back(
          SpatialItem{pool_task_handles_[slot], pool_tasks_[slot].location});
    }
    task_grid_.Build(grid_items_);
    ingest_stats_.spatial_insert_seconds = phase.ElapsedSeconds();

    phase.Restart();
    worker_store_.insert(worker_store_.end(), workers.begin(), workers.end());
    rows_.resize(worker_store_.size());
    SpliceRows(static_cast<int32_t>(known_workers), workers.size(),
               task_grid_, now);
    for (size_t i = 0; i < workers.size(); ++i) {
      pool_worker_handles_.push_back(static_cast<int32_t>(known_workers + i));
    }
    ingest_stats_.fresh_rows_seconds = phase.ElapsedSeconds();
  }
}

void StreamingPlane::StageReleases(double now) {
  size_t keep = 0;
  for (size_t i = 0; i < busy_.size(); ++i) {
    if (busy_[i].first <= now) {
      staged_releases_.push_back(busy_[i].second);
    } else {
      busy_[keep++] = busy_[i];
    }
  }
  busy_.resize(keep);
}

void StreamingPlane::FlushReleases() {
  for (const int32_t handle : staged_releases_) {
    pool_worker_handles_.push_back(handle);
  }
  staged_releases_.clear();
}

void StreamingPlane::RemoveTask(int32_t slot) {
  const int32_t handle = pool_task_handles_[static_cast<size_t>(slot)];
  slot_of_handle_[static_cast<size_t>(handle)] = -1;
}

void StreamingPlane::RefreshSlots() {
  for (size_t slot = 0; slot < pool_task_handles_.size(); ++slot) {
    slot_of_handle_[static_cast<size_t>(pool_task_handles_[slot])] =
        static_cast<int32_t>(slot);
  }
}

void StreamingPlane::Expire(double now) {
  size_t keep = 0;
  for (size_t slot = 0; slot < pool_tasks_.size(); ++slot) {
    if (pool_tasks_[slot].deadline < now) {
      RemoveTask(static_cast<int32_t>(slot));
    } else {
      pool_tasks_[keep] = pool_tasks_[slot];
      pool_task_handles_[keep] = pool_task_handles_[slot];
      ++keep;
    }
  }
  if (keep == pool_tasks_.size()) return;
  pool_tasks_.resize(keep);
  pool_task_handles_.resize(keep);
  RefreshSlots();
}

void StreamingPlane::Admit(int budget) {
  const int pool_size = static_cast<int>(pool_tasks_.size());
  admitted_.resize(static_cast<size_t>(pool_size));
  for (int slot = 0; slot < pool_size; ++slot) {
    admitted_[static_cast<size_t>(slot)] = slot;
  }
  admitted_count_ = pool_size;
  if (budget > 0 && pool_size > budget) {
    // Stable EDF on slot indices == stable EDF on the task vector, so the
    // admitted prefix and the deferred suffix match the sequential
    // admission exactly.
    std::stable_sort(admitted_.begin(), admitted_.end(),
                     [&](int32_t a, int32_t b) {
                       return EarliestDeadlineFirst(
                           pool_tasks_[static_cast<size_t>(a)],
                           pool_tasks_[static_cast<size_t>(b)]);
                     });
    admitted_count_ = budget;
  }
  pool_size_at_admit_ = static_cast<size_t>(pool_size);
}

void StreamingPlane::MaterializeWorkers(std::vector<Worker>* out) const {
  CASC_CHECK(out != nullptr);
  out->clear();
  out->reserve(pool_worker_handles_.size());
  for (const int32_t handle : pool_worker_handles_) {
    out->push_back(worker_store_[static_cast<size_t>(handle)]);
  }
}

void StreamingPlane::MaterializeAdmittedTasks(std::vector<Task>* out) const {
  CASC_CHECK(out != nullptr);
  out->clear();
  out->reserve(static_cast<size_t>(admitted_count_));
  for (int i = 0; i < admitted_count_; ++i) {
    out->push_back(pool_tasks_[static_cast<size_t>(admitted_[i])]);
  }
}

void StreamingPlane::EmitWorkerRow(WorkerIndex w, double now,
                                   std::vector<TaskIndex>* emit) {
  const int32_t handle = pool_worker_handles_[static_cast<size_t>(w)];
  const Worker& worker = worker_store_[static_cast<size_t>(handle)];
  if (worker.arrival_time > now) {
    // Not present yet (sub-epsilon window edge): empty row, exactly as
    // ComputeValidPairs() treats it. Keep the maintained row untouched.
    return;
  }
  std::vector<int32_t>& row = rows_[static_cast<size_t>(handle)];
  const size_t emit_begin = emit->size();
  size_t keep = 0;
  for (const int32_t task_handle : row) {
    const int32_t slot = slot_of_handle_[static_cast<size_t>(task_handle)];
    if (slot < 0) continue;  // task left the pool: drop the entry
    const int32_t instance_index =
        instance_index_of_slot_[static_cast<size_t>(slot)];
    if (instance_index < 0) {
      // Deferred this batch: kept untested. The deadline test is monotone
      // in now, so the batch that admits the task drops the entry exactly
      // when a test now would have.
      row[keep++] = task_handle;
      continue;
    }
    const Task& task = pool_tasks_[static_cast<size_t>(slot)];
    if (!CanArriveByDeadline(worker.location, worker.speed, task.location,
                             now, task.deadline)) {
      continue;  // monotone in now: the pair is dead forever, drop it
    }
    row[keep++] = task_handle;
    if (task.create_time > now) continue;  // sub-epsilon window edge
    emit->push_back(instance_index);
  }
  row.resize(keep);
  // Rows are kept in splice order (handle-ish); the CSR contract wants
  // ascending instance indices. Equal sets sorted the same way means
  // the emitted arrays are byte-identical to a from-scratch build.
  std::sort(emit->begin() + static_cast<ptrdiff_t>(emit_begin), emit->end());
}

void StreamingPlane::BuildValidPairs(Instance* instance,
                                     BatchWorkspace* workspace,
                                     ThreadPool* pool) {
  CASC_CHECK(instance != nullptr);
  CASC_CHECK_EQ(instance->num_workers(),
                static_cast<int>(pool_worker_handles_.size()));
  CASC_CHECK_EQ(instance->num_tasks(), admitted_count_);

  const double now = instance->now();
  ValidPairIndex index = workspace != nullptr
                             ? workspace->AcquireValidPairIndex()
                             : ValidPairIndex{};
  instance_index_of_slot_.assign(pool_tasks_.size(), -1);
  for (int i = 0; i < admitted_count_; ++i) {
    instance_index_of_slot_[static_cast<size_t>(admitted_[i])] = i;
  }

  // Each chunk prunes its own contiguous range of worker slots in place
  // while emitting their (sorted) rows into its buffer.
  Stopwatch emit_watch;
  const int num_workers = instance->num_workers();
  const int chunks = ThreadPool::ChunksFor(pool, num_workers, kMinRowsPerChunk);
  index.BuildChunked(num_workers, instance->num_tasks(), pool, chunks,
                     &emit_buffers_,
                     [&](int, WorkerIndex w, std::vector<TaskIndex>* emit) {
                       EmitWorkerRow(w, now, emit);
                     });
  csr_emit_seconds_ = emit_watch.ElapsedSeconds();

  if (config_.audit) {
    instance->ComputeValidPairs();
    ValidPairIndex scratch = instance->ReleaseValidPairs();
    CASC_CHECK(index.SameAs(scratch))
        << "streaming audit: delta-maintained valid pairs differ from the "
           "from-scratch build at now=" << now;
  }
  instance->AdoptValidPairs(std::move(index));
}

const SolveDelta* StreamingPlane::BuildSolveDelta(const Instance& instance) {
  if (!config_.warm_start) return nullptr;
  const int num_workers = instance.num_workers();
  const int num_tasks = instance.num_tasks();
  CASC_CHECK_EQ(num_workers, static_cast<int>(pool_worker_handles_.size()));
  CASC_CHECK_EQ(num_tasks, admitted_count_);
  CASC_CHECK(instance.valid_pairs_ready())
      << "BuildSolveDelta must run after BuildValidPairs";

  // One sequence number per solved batch. A handle is "carried" iff its
  // stamp equals the previous sequence number, i.e. it was part of the
  // last instance a solver actually saw — which is also why no-work
  // batches that skip the solve entirely need no special casing here.
  const int64_t prev_seq = solve_seq_;
  ++solve_seq_;
  seed_task_of_worker_.resize(worker_store_.size(), -1);
  worker_solved_stamp_.resize(worker_store_.size(), -1);
  task_solved_stamp_.resize(slot_of_handle_.size(), -1);

  delta_.seed_task.assign(static_cast<size_t>(num_workers), kNoTask);
  delta_.dirty.assign(static_cast<size_t>(num_workers), 0);
  delta_.num_seeded = 0;
  delta_.num_dirty = 0;
  delta_.num_carried = 0;
  delta_.dirty_task.assign(static_cast<size_t>(num_tasks), 0);
  delta_.num_dirty_tasks = 0;

  task_instance_of_handle_.assign(slot_of_handle_.size(), -1);
  for (int i = 0; i < num_tasks; ++i) {
    const int32_t handle =
        pool_task_handles_[static_cast<size_t>(admitted_[i])];
    task_instance_of_handle_[static_cast<size_t>(handle)] = i;
  }
  group_lost_.assign(static_cast<size_t>(num_tasks), 0);

  // Worker pass: remap each carried worker's recorded seed through the
  // handle back-map. Deadline monotonicity means a carried worker/task
  // pair can only disappear between batches, never appear, so a seed
  // that is still an instance pair today was exactly the pair played at
  // the previous equilibrium.
  for (WorkerIndex w = 0; w < num_workers; ++w) {
    const int32_t handle = pool_worker_handles_[static_cast<size_t>(w)];
    const bool carried =
        worker_solved_stamp_[static_cast<size_t>(handle)] == prev_seq;
    worker_solved_stamp_[static_cast<size_t>(handle)] = solve_seq_;
    if (!carried) {
      // Fresh arrival or returner from a busy spell.
      delta_.dirty[static_cast<size_t>(w)] = 1;
      continue;
    }
    ++delta_.num_carried;
    const int32_t seed_handle =
        seed_task_of_worker_[static_cast<size_t>(handle)];
    if (seed_handle < 0) continue;  // idle at the previous equilibrium
    const int32_t t =
        task_instance_of_handle_[static_cast<size_t>(seed_handle)];
    bool alive = t >= 0;
    if (alive) {
      const std::span<const TaskIndex> row = instance.ValidTasks(w);
      alive = std::binary_search(row.begin(), row.end(),
                                 static_cast<TaskIndex>(t));
    }
    if (alive) {
      delta_.seed_task[static_cast<size_t>(w)] = static_cast<TaskIndex>(t);
      ++delta_.num_seeded;
    } else {
      // The previous choice expired, was deferred, or its deadline died:
      // the worker must re-decide, and its old group lost a member, so
      // the group's survivors re-decide too (cascaded below — they are
      // all candidates of the lost seed's task when it is still around).
      delta_.dirty[static_cast<size_t>(w)] = 1;
      if (t >= 0) group_lost_[static_cast<size_t>(t)] = 1;
    }
  }

  // Arrival pass: a worker that is new to the solved instance (or whose
  // recorded seed died) changes the group-formation potential of every
  // task it can serve — the restricted TPG re-seed must eventually
  // retry those tasks with the newcomer, or a standing task could sit
  // unstaffed forever while cold solves would have crewed it (the
  // kEmpty trap at the delta level: best-response rounds alone cannot
  // form a group from idle workers). Marking every such task dirty
  // every batch would re-seed the whole standing frontier in
  // arrival-dense traces, so arrivals only bump a per-handle counter
  // here; a standing task re-enters the frontier on its round-robin
  // epoch slot below, once it actually accumulated fresh candidates.
  // Base-dirty workers only — candidates dirtied by the task cascade
  // below do not fan back out, so the marking needs no fixpoint
  // iteration.
  task_fresh_candidates_.resize(slot_of_handle_.size(), 0);
  for (WorkerIndex w = 0; w < num_workers; ++w) {
    if (delta_.dirty[static_cast<size_t>(w)] == 0) continue;
    for (const TaskIndex t : instance.ValidTasks(w)) {
      const int32_t handle =
          pool_task_handles_[static_cast<size_t>(admitted_[t])];
      ++task_fresh_candidates_[static_cast<size_t>(handle)];
    }
  }

  // Task pass: a task that is new to the solved instance attracts every
  // candidate; a retained task whose group lost a member changes every
  // member's marginal and every outsider's join value. Both cascade as
  // "dirty all candidates" — the solver's verification pass backstops
  // anything subtler.
  for (int i = 0; i < num_tasks; ++i) {
    const int32_t handle =
        pool_task_handles_[static_cast<size_t>(admitted_[i])];
    const bool carried =
        task_solved_stamp_[static_cast<size_t>(handle)] == prev_seq;
    task_solved_stamp_[static_cast<size_t>(handle)] = solve_seq_;
    const bool retry_due =
        task_fresh_candidates_[static_cast<size_t>(handle)] > 0 &&
        (handle % kWarmRetryEpoch) ==
            static_cast<int32_t>(solve_seq_ % kWarmRetryEpoch);
    if (carried && group_lost_[static_cast<size_t>(i)] == 0 && !retry_due) {
      continue;
    }
    task_fresh_candidates_[static_cast<size_t>(handle)] = 0;
    delta_.dirty_task[static_cast<size_t>(i)] = 1;
    ++delta_.num_dirty_tasks;
    for (const WorkerIndex c : instance.Candidates(i)) {
      delta_.dirty[static_cast<size_t>(c)] = 1;
    }
  }

  // Seeds never point at a dirty task: a new or regrouped task gets its
  // group re-formed from scratch by the warm solver's restricted TPG
  // pass, so its surviving members must be released. They are already
  // dirty (every candidate of a dirty task is).
  if (delta_.num_dirty_tasks > 0) {
    for (WorkerIndex w = 0; w < num_workers; ++w) {
      const TaskIndex t = delta_.seed_task[static_cast<size_t>(w)];
      if (t == kNoTask || delta_.dirty_task[static_cast<size_t>(t)] == 0) {
        continue;
      }
      delta_.seed_task[static_cast<size_t>(w)] = kNoTask;
      --delta_.num_seeded;
    }
  }

  for (WorkerIndex w = 0; w < num_workers; ++w) {
    delta_.num_dirty += delta_.dirty[static_cast<size_t>(w)];
  }
  // Zero carry-over: hand the solver nothing at all, so the batch runs
  // the literal cold path (bit-identical to warm start off). A
  // carried-but-all-idle skeleton IS published — the clean idle workers
  // are exactly the ones whose re-evaluation the warm rounds save.
  if (delta_.num_carried == 0) return nullptr;
  return &delta_;
}

void StreamingPlane::Commit(const Instance& instance,
                            const Assignment& assignment,
                            double release_time) {
  const int num_workers = instance.num_workers();
  const int num_tasks = instance.num_tasks();
  CASC_CHECK_EQ(num_tasks, admitted_count_);
  CASC_CHECK_LE(static_cast<size_t>(num_workers),
                pool_worker_handles_.size());

  // Started groups (>= B members) occupy their workers until release.
  emit_row_.assign(static_cast<size_t>(num_workers), 0);
  std::vector<int32_t>& worker_started = emit_row_;
  instance_index_of_slot_.assign(static_cast<size_t>(num_tasks), 0);
  std::vector<int32_t>& task_started = instance_index_of_slot_;
  for (TaskIndex t = 0; t < num_tasks; ++t) {
    if (assignment.GroupSize(t) < instance.min_group_size()) continue;
    // A crew that produces no value under the active objective (e.g. a
    // multiskill group that misses a required skill) must not start: it
    // would burn its workers' time on a worthless execution. Under the
    // default objective any group of >= B scores positive, so this gate
    // only bites for variant objectives with feasibility predicates.
    if (GroupScore(instance, t, assignment.GroupOf(t)) <= 0.0) continue;
    task_started[static_cast<size_t>(t)] = 1;
    for (const WorkerIndex w : assignment.GroupOf(t)) {
      worker_started[static_cast<size_t>(w)] = 1;
    }
  }

  // Record the solved equilibrium's skeleton by handle before the pools
  // are rebuilt (the admitted_/pool_task_handles_ maps are still those of
  // the solved instance here). Started workers leave with their whole
  // group, so their stamp is invalidated: when they return from the busy
  // queue — even within one inter-solve gap — they read as fresh.
  if (config_.warm_start) {
    seed_task_of_worker_.resize(worker_store_.size(), -1);
    worker_solved_stamp_.resize(worker_store_.size(), -1);
    for (WorkerIndex w = 0; w < num_workers; ++w) {
      const int32_t handle = pool_worker_handles_[static_cast<size_t>(w)];
      if (worker_started[static_cast<size_t>(w)] != 0) {
        seed_task_of_worker_[static_cast<size_t>(handle)] = -1;
        worker_solved_stamp_[static_cast<size_t>(handle)] = -1;
        continue;
      }
      const TaskIndex t = assignment.TaskOf(w);
      seed_task_of_worker_[static_cast<size_t>(handle)] =
          t == kNoTask
              ? -1
              : pool_task_handles_[static_cast<size_t>(
                    admitted_[static_cast<size_t>(t)])];
    }
  }

  // Workers: stable compaction. Pool indices past num_workers are
  // arrivals ingested during an overlapped solve; they stay in place
  // after the survivors, reproducing [survivors][arrivals].
  size_t keep = 0;
  for (size_t i = 0; i < pool_worker_handles_.size(); ++i) {
    const int32_t handle = pool_worker_handles_[i];
    if (i < static_cast<size_t>(num_workers) && worker_started[i] != 0) {
      busy_.emplace_back(release_time, handle);
    } else {
      pool_worker_handles_[keep++] = handle;
    }
  }
  pool_worker_handles_.resize(keep);

  // Tasks: rebuild the pool in the sequential carry-over order —
  // [non-started admitted, instance order][deferred][overlap arrivals].
  scratch_tasks_.clear();
  scratch_handles_.clear();
  const auto keep_slot = [&](int32_t slot) {
    scratch_tasks_.push_back(pool_tasks_[static_cast<size_t>(slot)]);
    scratch_handles_.push_back(pool_task_handles_[static_cast<size_t>(slot)]);
  };
  for (int i = 0; i < admitted_count_; ++i) {
    const int32_t slot = admitted_[static_cast<size_t>(i)];
    if (task_started[static_cast<size_t>(i)] != 0) {
      RemoveTask(slot);
    } else {
      keep_slot(slot);
    }
  }
  for (size_t i = static_cast<size_t>(admitted_count_); i < admitted_.size();
       ++i) {
    keep_slot(admitted_[i]);
  }
  committed_queue_depth_ = static_cast<int>(scratch_tasks_.size());
  for (size_t slot = pool_size_at_admit_; slot < pool_tasks_.size(); ++slot) {
    keep_slot(static_cast<int32_t>(slot));
  }
  std::swap(pool_tasks_, scratch_tasks_);
  std::swap(pool_task_handles_, scratch_handles_);
  RefreshSlots();
}

}  // namespace casc
