#include "model/io.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

namespace casc {
namespace {

/// Reads one whitespace-delimited token; empty string at EOF.
std::string NextToken(std::istream* in) {
  std::string token;
  *in >> token;
  return token;
}

Status ExpectToken(std::istream* in, const std::string& expected) {
  const std::string token = NextToken(in);
  if (token != expected) {
    return Status::InvalidArgument("expected '" + expected + "', got '" +
                                   token + "'");
  }
  return Status::Ok();
}

bool ReadDouble(std::istream* in, double* out) {
  return static_cast<bool>(*in >> *out);
}

bool ReadInt(std::istream* in, int64_t* out) {
  return static_cast<bool>(*in >> *out);
}

/// True when `value` fits the `int` the model stores counts and
/// capacities in.
bool FitsInt(int64_t value) {
  return value >= std::numeric_limits<int>::min() &&
         value <= std::numeric_limits<int>::max();
}

}  // namespace

Status SaveInstance(const Instance& instance, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null stream");
  *out << std::setprecision(17);
  *out << "casc-instance v1\n";
  *out << "now " << instance.now() << " min_group "
       << instance.min_group_size() << "\n";
  *out << "workers " << instance.num_workers() << "\n";
  for (const Worker& worker : instance.workers()) {
    *out << worker.id << " " << worker.location.x << " "
         << worker.location.y << " " << worker.speed << " " << worker.radius
         << " " << worker.arrival_time << "\n";
  }
  *out << "tasks " << instance.num_tasks() << "\n";
  for (const Task& task : instance.tasks()) {
    *out << task.id << " " << task.location.x << " " << task.location.y
         << " " << task.create_time << " " << task.deadline << " "
         << task.capacity << "\n";
  }
  *out << "coop\n";
  for (int i = 0; i < instance.num_workers(); ++i) {
    for (int k = 0; k < instance.num_workers(); ++k) {
      if (k > 0) *out << " ";
      *out << instance.coop().Quality(i, k);
    }
    *out << "\n";
  }
  *out << "end\n";
  if (!out->good()) return Status::Internal("stream write failed");
  return Status::Ok();
}

Status SaveInstanceToFile(const Instance& instance, const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  return SaveInstance(instance, &file);
}

Result<Instance> LoadInstance(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null stream");
  if (Status s = ExpectToken(in, "casc-instance"); !s.ok()) return s;
  if (Status s = ExpectToken(in, "v1"); !s.ok()) return s;
  if (Status s = ExpectToken(in, "now"); !s.ok()) return s;
  double now = 0.0;
  if (!ReadDouble(in, &now)) return Status::InvalidArgument("bad now");
  if (Status s = ExpectToken(in, "min_group"); !s.ok()) return s;
  int64_t min_group = 0;
  if (!ReadInt(in, &min_group) || min_group < 2 || !FitsInt(min_group)) {
    return Status::InvalidArgument("bad min_group");
  }

  if (Status s = ExpectToken(in, "workers"); !s.ok()) return s;
  int64_t m = 0;
  if (!ReadInt(in, &m) || m < 0 || !FitsInt(m)) {
    return Status::InvalidArgument("bad worker count");
  }
  // No reserve() from the header: the count is untrusted until the
  // records behind it have actually been read.
  std::vector<Worker> workers;
  for (int64_t i = 0; i < m; ++i) {
    Worker worker;
    if (!ReadInt(in, &worker.id) || !ReadDouble(in, &worker.location.x) ||
        !ReadDouble(in, &worker.location.y) ||
        !ReadDouble(in, &worker.speed) || !ReadDouble(in, &worker.radius) ||
        !ReadDouble(in, &worker.arrival_time)) {
      return Status::InvalidArgument("bad worker record " +
                                     std::to_string(i));
    }
    if (!(worker.speed >= 0.0)) {
      return Status::InvalidArgument("worker record " + std::to_string(i) +
                                     ": speed must be non-negative");
    }
    if (!(worker.radius >= 0.0)) {
      return Status::InvalidArgument("worker record " + std::to_string(i) +
                                     ": radius must be non-negative");
    }
    workers.push_back(worker);
  }

  if (Status s = ExpectToken(in, "tasks"); !s.ok()) return s;
  int64_t n = 0;
  if (!ReadInt(in, &n) || n < 0 || !FitsInt(n)) {
    return Status::InvalidArgument("bad task count");
  }
  std::vector<Task> tasks;
  for (int64_t j = 0; j < n; ++j) {
    Task task;
    int64_t capacity = 0;
    if (!ReadInt(in, &task.id) || !ReadDouble(in, &task.location.x) ||
        !ReadDouble(in, &task.location.y) ||
        !ReadDouble(in, &task.create_time) ||
        !ReadDouble(in, &task.deadline) || !ReadInt(in, &capacity)) {
      return Status::InvalidArgument("bad task record " + std::to_string(j));
    }
    if (!FitsInt(capacity)) {
      return Status::InvalidArgument("task record " + std::to_string(j) +
                                     ": capacity does not fit an int");
    }
    if (capacity < min_group) {
      return Status::InvalidArgument("task capacity below min_group");
    }
    task.capacity = static_cast<int>(capacity);
    tasks.push_back(task);
  }

  if (Status s = ExpectToken(in, "coop"); !s.ok()) return s;
  CooperationMatrix coop(static_cast<int>(m));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t k = 0; k < m; ++k) {
      double q = 0.0;
      if (!ReadDouble(in, &q)) {
        return Status::InvalidArgument("bad coop cell");
      }
      if (i == k) continue;  // diagonal is fixed at 0
      if (q < 0.0 || q > 1.0) {
        return Status::InvalidArgument("coop quality out of [0,1]");
      }
      coop.SetQuality(static_cast<int>(i), static_cast<int>(k), q);
    }
  }
  if (Status s = ExpectToken(in, "end"); !s.ok()) return s;

  Instance instance(std::move(workers), std::move(tasks), std::move(coop),
                    now, static_cast<int>(min_group));
  instance.ComputeValidPairs();
  return instance;
}

Result<Instance> LoadInstanceFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  return LoadInstance(&file);
}

Status SaveAssignment(const Assignment& assignment, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null stream");
  *out << "casc-assignment v1\n";
  *out << "pairs " << assignment.NumAssigned() << "\n";
  assignment.ForEachPair([out](WorkerIndex w, TaskIndex t) {
    *out << w << " " << t << "\n";
  });
  *out << "end\n";
  if (!out->good()) return Status::Internal("stream write failed");
  return Status::Ok();
}

Result<Assignment> LoadAssignment(const Instance& instance,
                                  std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null stream");
  if (Status s = ExpectToken(in, "casc-assignment"); !s.ok()) return s;
  if (Status s = ExpectToken(in, "v1"); !s.ok()) return s;
  if (Status s = ExpectToken(in, "pairs"); !s.ok()) return s;
  int64_t count = 0;
  if (!ReadInt(in, &count) || count < 0) {
    return Status::InvalidArgument("bad pair count");
  }
  Assignment assignment(instance);
  for (int64_t i = 0; i < count; ++i) {
    int64_t worker = 0, task = 0;
    if (!ReadInt(in, &worker) || !ReadInt(in, &task)) {
      return Status::InvalidArgument("bad pair record");
    }
    if (worker < 0 || worker >= instance.num_workers() || task < 0 ||
        task >= instance.num_tasks()) {
      return Status::OutOfRange("pair indexes out of range");
    }
    if (assignment.TaskOf(static_cast<WorkerIndex>(worker)) != kNoTask) {
      return Status::InvalidArgument("pair record " + std::to_string(i) +
                                     ": worker " + std::to_string(worker) +
                                     " listed twice");
    }
    assignment.Assign(static_cast<WorkerIndex>(worker),
                      static_cast<TaskIndex>(task));
  }
  if (Status s = ExpectToken(in, "end"); !s.ok()) return s;
  return assignment;
}

}  // namespace casc
