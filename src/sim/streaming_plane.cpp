#include "sim/streaming_plane.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "model/objective.h"

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "geo/reachability.h"

namespace casc {
namespace {

/// Below this many rows a loop runs inline: the fan-out costs more than
/// the work it distributes.
constexpr size_t kMinRowsPerChunk = 256;

}  // namespace

StreamingPlaneConfig StreamingPlaneConfig::FromEnv() {
  StreamingPlaneConfig config;
  // Read at call time (not cached) so tests can flip the switches
  // between runs in one process.
  config.audit = std::getenv("CASC_STREAM_AUDIT") != nullptr;
  config.warm_start = std::getenv("CASC_NO_WARM_START") == nullptr;
  if (const char* epoch = std::getenv("CASC_WARM_RETRY_EPOCH")) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(epoch, &end, 10);
    CASC_CHECK(end != epoch && *end == '\0' && errno == 0 && value >= 1 &&
               value <= std::numeric_limits<int>::max())
        << "CASC_WARM_RETRY_EPOCH must be a positive integer, got '" << epoch
        << "'";
    config.warm_retry_epoch = static_cast<int>(value);
  }
  return config;
}

StreamingPlane::StreamingPlane(StreamingPlaneConfig config)
    : config_(config) {
  CASC_CHECK_GE(config_.ingest_threads, 0);
  ingest_threads_ = config_.ingest_threads > 0
                        ? config_.ingest_threads
                        : std::max(1, ThreadPool::DefaultThreads());
  if (ingest_threads_ > 1) {
    ingest_pool_ = std::make_unique<ThreadPool>(ingest_threads_);
  }
  slots_.resize(static_cast<size_t>(ingest_threads_));
}

StreamingPlane::~StreamingPlane() = default;

int StreamingPlane::ChunksFor(size_t count) const {
  if (ingest_threads_ <= 1 || count < 2 * kMinRowsPerChunk) return 1;
  const size_t by_grain = std::max<size_t>(count / kMinRowsPerChunk, 1);
  return static_cast<int>(
      std::min<size_t>(static_cast<size_t>(ingest_threads_), by_grain));
}

void StreamingPlane::RunOnChunks(
    size_t count, int chunks,
    const std::function<void(int, size_t, size_t)>& fn) {
  if (chunks <= 1 || ingest_pool_ == nullptr) {
    fn(0, 0, count);
    return;
  }
  ingest_pool_->ParallelFor(chunks, [&](int64_t chunk) {
    const auto [begin, end] = ThreadPool::ChunkBounds(
        static_cast<int64_t>(count), chunks, static_cast<int>(chunk));
    fn(static_cast<int>(chunk), static_cast<size_t>(begin),
       static_cast<size_t>(end));
  });
}

void StreamingPlane::SpliceRow(int32_t handle, const GridIndex& tasks,
                               double now, IngestSlot* scratch) {
  const Worker& worker = worker_store_[static_cast<size_t>(handle)];
  std::vector<int32_t>& row = rows_[static_cast<size_t>(handle)];
  tasks.CircleQueryInto(worker.location, worker.radius, &scratch->query);
  for (const int64_t task_handle : scratch->query) {
    const int32_t slot = slot_of_handle_[static_cast<size_t>(task_handle)];
    const Task& task = pool_tasks_[static_cast<size_t>(slot)];
    // The circle query already established the working-area condition
    // (time-invariant). A pair failing the deadline test now can never
    // pass it later, so it is correct to never record it.
    if (!CanArriveByDeadline(worker.location, worker.speed, task.location,
                             now, task.deadline)) {
      ++scratch->rejects;
      continue;
    }
    row.push_back(static_cast<int32_t>(task_handle));
    ++scratch->appended;
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
  // O(delta)-ish. Each chunk writes only its own contiguous handle
  // range's rows, so the fan-out is race-free and the per-row outcome is
  // exactly the serial loop's; counters merge in fixed chunk order below.
  Stopwatch phase;
  if (!tasks.empty() && known_workers > 0) {
    grid_items_.clear();
    for (size_t i = 0; i < tasks.size(); ++i) {
      const int32_t handle =
          static_cast<int32_t>(slot_of_handle_.size() - tasks.size() + i);
      grid_items_.push_back(SpatialItem{handle, tasks[i].location});
    }
    task_grid_.Build(grid_items_);
    const int chunks = ChunksFor(known_workers);
    RunOnChunks(known_workers, chunks, [&](int chunk, size_t begin,
                                           size_t end) {
      IngestSlot& scratch = slots_[static_cast<size_t>(chunk)];
      scratch.appended = 0;
      scratch.rejects = 0;
      for (size_t h = begin; h < end; ++h) {
        SpliceRow(static_cast<int32_t>(h), task_grid_, now, &scratch);
      }
    });
    for (int c = 0; c < chunks; ++c) {
      ingest_stats_.spliced_entries += slots_[static_cast<size_t>(c)].appended;
      ingest_stats_.splice_rejects += slots_[static_cast<size_t>(c)].rejects;
    }
  }
  ingest_stats_.splice_seconds = phase.ElapsedSeconds();

  // New workers: one full circle query each against a grid over the open
  // pool, this window's tasks included. The stores are resized up front
  // so the parallel fill never reallocates under other chunks.
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
    const int chunks = ChunksFor(workers.size());
    RunOnChunks(workers.size(), chunks, [&](int chunk, size_t begin,
                                            size_t end) {
      IngestSlot& scratch = slots_[static_cast<size_t>(chunk)];
      scratch.appended = 0;
      scratch.rejects = 0;
      for (size_t i = begin; i < end; ++i) {
        SpliceRow(static_cast<int32_t>(known_workers + i), task_grid_, now,
                  &scratch);
      }
    });
    for (int c = 0; c < chunks; ++c) {
      ingest_stats_.fresh_entries += slots_[static_cast<size_t>(c)].appended;
      ingest_stats_.fresh_rejects += slots_[static_cast<size_t>(c)].rejects;
    }
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
                       const Task& ta = pool_tasks_[static_cast<size_t>(a)];
                       const Task& tb = pool_tasks_[static_cast<size_t>(b)];
                       if (ta.deadline != tb.deadline) {
                         return ta.deadline < tb.deadline;
                       }
                       return ta.id < tb.id;
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

void StreamingPlane::EmitWorkerRow(size_t w, double now, IngestSlot* scratch) {
  const int32_t handle = pool_worker_handles_[w];
  const Worker& worker = worker_store_[static_cast<size_t>(handle)];
  if (worker.arrival_time > now) {
    // Not present yet (sub-epsilon window edge): empty row, exactly as
    // ComputeValidPairs() treats it. Keep the maintained row untouched.
    row_lengths_[w] = 0;
    return;
  }
  std::vector<int32_t>& row = rows_[static_cast<size_t>(handle)];
  const size_t emit_begin = scratch->emit.size();
  size_t keep = 0;
  for (const int32_t task_handle : row) {
    const int32_t slot = slot_of_handle_[static_cast<size_t>(task_handle)];
    if (slot < 0) {
      ++scratch->dropped;  // task left the pool: drop the entry
      continue;
    }
    const Task& task = pool_tasks_[static_cast<size_t>(slot)];
    if (!CanArriveByDeadline(worker.location, worker.speed, task.location,
                             now, task.deadline)) {
      // Monotone in now: the pair is dead forever, drop the entry.
      ++scratch->dropped;
      continue;
    }
    row[keep++] = task_handle;
    ++scratch->retained;
    const int32_t instance_index =
        instance_index_of_slot_[static_cast<size_t>(slot)];
    if (instance_index < 0) continue;     // alive but deferred this batch
    if (task.create_time > now) continue;  // sub-epsilon window edge
    scratch->emit.push_back(instance_index);
  }
  row.resize(keep);
  // Rows are kept in splice order (handle-ish); the CSR contract wants
  // ascending instance indices. Equal sets sorted the same way means
  // the emitted arrays are byte-identical to a from-scratch build.
  std::sort(scratch->emit.begin() + static_cast<ptrdiff_t>(emit_begin),
            scratch->emit.end());
  row_lengths_[w] = static_cast<int32_t>(scratch->emit.size() - emit_begin);
}

void StreamingPlane::BuildValidPairs(Instance* instance,
                                     BatchWorkspace* workspace) {
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

  // Fanned-out two-pass emission. Pass 1: each chunk prunes its own
  // contiguous range of worker slots in place and collects the emitted
  // (already sorted) rows into its slot's buffer, recording per-row
  // lengths. A serial prefix sum turns the lengths into final CSR
  // offsets, then pass 2 — split into the *same* chunks, so each chunk's
  // buffer walk realigns — copies every row into its disjoint flat
  // range. Row w's content never depends on any other row, so the arrays
  // are byte-identical to the serial build for any chunk count.
  Stopwatch emit_watch;
  emit_stats_ = StreamingEmitStats{};
  const size_t num_workers = pool_worker_handles_.size();
  const int chunks = ChunksFor(num_workers);
  row_lengths_.assign(num_workers, 0);
  RunOnChunks(num_workers, chunks, [&](int chunk, size_t begin, size_t end) {
    IngestSlot& scratch = slots_[static_cast<size_t>(chunk)];
    scratch.emit.clear();
    scratch.retained = 0;
    scratch.dropped = 0;
    for (size_t w = begin; w < end; ++w) EmitWorkerRow(w, now, &scratch);
  });
  int32_t* offsets = index.StartParallelBuild(instance->num_workers(),
                                              instance->num_tasks());
  offsets[0] = 0;
  for (size_t w = 0; w < num_workers; ++w) {
    offsets[w + 1] = offsets[w] + row_lengths_[w];
  }
  TaskIndex* flat = index.AllocateParallelFlat();
  RunOnChunks(num_workers, chunks, [&](int chunk, size_t begin, size_t end) {
    const IngestSlot& scratch = slots_[static_cast<size_t>(chunk)];
    size_t src = 0;
    for (size_t w = begin; w < end; ++w) {
      const size_t n = static_cast<size_t>(row_lengths_[w]);
      std::copy_n(scratch.emit.data() + src, n, flat + offsets[w]);
      src += n;
    }
  });
  index.FinishParallelBuild();
  for (int c = 0; c < chunks; ++c) {
    emit_stats_.retained_entries += slots_[static_cast<size_t>(c)].retained;
    emit_stats_.dropped_entries += slots_[static_cast<size_t>(c)].dropped;
  }
  emit_stats_.csr_emit_seconds = emit_watch.ElapsedSeconds();

  if (config_.audit) {
    instance->ComputeValidPairs();
    ValidPairIndex scratch = instance->ReleaseValidPairs();
    CASC_CHECK(index.SameAs(scratch))
        << "CASC_STREAM_AUDIT: delta-maintained valid pairs differ from "
           "the from-scratch build at now=" << now;
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
  const int retry_epoch = std::max(1, config_.warm_retry_epoch);

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
        (handle % retry_epoch) ==
            static_cast<int32_t>(solve_seq_ % retry_epoch);
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
  // the literal cold path (bit-identical to CASC_NO_WARM_START). A
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
