#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "algo/tpg_assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/io.h"
#include "model/objective.h"

namespace casc {
namespace {

Instance RandomInstance(int m, int n, uint64_t seed) {
  Rng rng(seed);
  SyntheticInstanceConfig config;
  config.num_workers = m;
  config.num_tasks = n;
  return GenerateSyntheticInstance(config, 1.5, &rng);
}

// ---------------------------------------------------------------------------
// Instance round trip
// ---------------------------------------------------------------------------

TEST(InstanceIoTest, RoundTripPreservesEverything) {
  const Instance original = RandomInstance(25, 10, 1);
  std::stringstream stream;
  ASSERT_TRUE(SaveInstance(original, &stream).ok());
  Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_workers(), original.num_workers());
  EXPECT_EQ(loaded->num_tasks(), original.num_tasks());
  EXPECT_DOUBLE_EQ(loaded->now(), original.now());
  EXPECT_EQ(loaded->min_group_size(), original.min_group_size());
  for (int i = 0; i < original.num_workers(); ++i) {
    const Worker& a = original.workers()[static_cast<size_t>(i)];
    const Worker& b = loaded->workers()[static_cast<size_t>(i)];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.location, b.location);
    EXPECT_DOUBLE_EQ(a.speed, b.speed);
    EXPECT_DOUBLE_EQ(a.radius, b.radius);
    EXPECT_DOUBLE_EQ(a.arrival_time, b.arrival_time);
  }
  for (int j = 0; j < original.num_tasks(); ++j) {
    const Task& a = original.tasks()[static_cast<size_t>(j)];
    const Task& b = loaded->tasks()[static_cast<size_t>(j)];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.location, b.location);
    EXPECT_DOUBLE_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.capacity, b.capacity);
  }
  for (int i = 0; i < original.num_workers(); ++i) {
    for (int k = 0; k < original.num_workers(); ++k) {
      EXPECT_DOUBLE_EQ(loaded->coop().Quality(i, k),
                       original.coop().Quality(i, k));
    }
  }
  // Valid pairs recomputed identically.
  EXPECT_EQ(loaded->NumValidPairs(), original.NumValidPairs());
}

TEST(InstanceIoTest, RoundTripPreservesSolverBehaviour) {
  const Instance original = RandomInstance(40, 15, 2);
  std::stringstream stream;
  ASSERT_TRUE(SaveInstance(original, &stream).ok());
  Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_TRUE(loaded.ok());
  TpgAssigner tpg_a, tpg_b;
  const double score_a = TotalScore(original, tpg_a.Run(original));
  const double score_b = TotalScore(*loaded, tpg_b.Run(*loaded));
  EXPECT_DOUBLE_EQ(score_a, score_b);
}

TEST(InstanceIoTest, FileRoundTrip) {
  const Instance original = RandomInstance(10, 4, 3);
  const std::string path = ::testing::TempDir() + "/casc_instance.txt";
  ASSERT_TRUE(SaveInstanceToFile(original, path).ok());
  Result<Instance> loaded = LoadInstanceFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_workers(), 10);
}

TEST(InstanceIoTest, MissingFileIsNotFound) {
  Result<Instance> loaded =
      LoadInstanceFromFile("/nonexistent/dir/instance.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(InstanceIoTest, RejectsWrongMagic) {
  std::stringstream stream("other-format v1\n");
  EXPECT_FALSE(LoadInstance(&stream).ok());
}

TEST(InstanceIoTest, RejectsTruncatedInput) {
  const Instance original = RandomInstance(8, 3, 4);
  std::stringstream stream;
  ASSERT_TRUE(SaveInstance(original, &stream).ok());
  const std::string full = stream.str();
  // Chop at several points; every prefix must fail cleanly.
  for (const size_t cut : {full.size() / 4, full.size() / 2,
                           full.size() - 5}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(LoadInstance(&truncated).ok()) << "cut at " << cut;
  }
}

TEST(InstanceIoTest, RejectsOutOfRangeQuality) {
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 2\n"
      "0 0.1 0.1 0.5 0.5 0\n"
      "1 0.2 0.2 0.5 0.5 0\n"
      "tasks 1\n"
      "0 0.15 0.15 0 5 2\n"
      "coop\n"
      "0 1.5\n"
      "1.5 0\n"
      "end\n");
  const Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_FALSE(loaded.ok());
}

TEST(InstanceIoTest, RejectsNonZeroDiagonal) {
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 2\n"
      "0 0.1 0.1 0.5 0.5 0\n"
      "1 0.2 0.2 0.5 0.5 0\n"
      "tasks 1\n"
      "0 0.15 0.15 0 5 2\n"
      "coop\n"
      "7.5 0.5\n"
      "0.5 0\n"
      "end\n");
  const Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("diagonal"), std::string::npos)
      << loaded.status().ToString();
}

TEST(InstanceIoTest, HugeCapacitySolvesInBoundedMemory) {
  // Capacity 10^9 with three workers: group slabs are sized by the worker
  // count, not the capacity, so solving allocates a few slots, not 4 GB.
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 3\n"
      "workers 3\n"
      "0 0.5 0.5 0.05 0.3 0\n"
      "1 0.5 0.5 0.05 0.3 0\n"
      "2 0.5 0.5 0.05 0.3 0\n"
      "tasks 1\n"
      "0 0.5 0.5 0 3 1000000000\n"
      "coop\n"
      "0 0.6 0.1\n"
      "0.6 0 0.1\n"
      "0.1 0.1 0\n"
      "end\n");
  const Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(loaded.value());
  EXPECT_EQ(assignment.GroupSize(0), 3);
  EXPECT_TRUE(assignment.Validate(loaded.value()).ok());
}

TEST(InstanceIoTest, RejectsCapacityBelowMinGroup) {
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 3\n"
      "workers 0\n"
      "tasks 1\n"
      "0 0.15 0.15 0 5 2\n"
      "coop\n"
      "end\n");
  EXPECT_FALSE(LoadInstance(&stream).ok());
}

TEST(InstanceIoTest, RejectsWorkerCountBeyondInt) {
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 3000000000\n");
  const Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("worker count"),
            std::string::npos)
      << loaded.status().message();
}

TEST(InstanceIoTest, HugeHeaderCountWithoutRecordsFailsCleanly) {
  // Fits an int, so only the missing records can reject it; the reader
  // must not allocate from the header first.
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 2000000000\n"
      "0 0.1 0.1 0.5 0.5 0\n");
  const Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad worker record 1"),
            std::string::npos)
      << loaded.status().message();
}

TEST(InstanceIoTest, RejectsCapacityBeyondInt) {
  // 4294967298 = 2^32 + 2 would truncate to a valid-looking 2.
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 0\n"
      "tasks 1\n"
      "0 0.15 0.15 0 5 4294967298\n"
      "coop\n"
      "end\n");
  const Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("task record 0"),
            std::string::npos)
      << loaded.status().message();
}

TEST(InstanceIoTest, RejectsNegativeSpeedAndRadius) {
  const std::string header =
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 1\n";
  const std::string footer =
      "tasks 0\n"
      "coop\n"
      "0\n"
      "end\n";
  const auto load = [&](const std::string& worker) {
    std::stringstream stream(header + worker + footer);
    return LoadInstance(&stream);
  };
  ASSERT_TRUE(load("0 0.1 0.1 0.5 0.5 0\n").ok());
  const Result<Instance> bad_speed = load("0 0.1 0.1 -1 0.5 0\n");
  ASSERT_FALSE(bad_speed.ok());
  EXPECT_NE(bad_speed.status().message().find("worker record 0: speed"),
            std::string::npos)
      << bad_speed.status().message();
  const Result<Instance> bad_radius = load("0 0.1 0.1 0.5 -0.3 0\n");
  ASSERT_FALSE(bad_radius.ok());
  EXPECT_NE(bad_radius.status().message().find("worker record 0: radius"),
            std::string::npos)
      << bad_radius.status().message();
}

/// One malformed instance file and the message its rejection must carry.
struct MalformedInstance {
  const char* label;
  std::string text;
  const char* message;  ///< substring of the returned Status message
};

/// A two-worker, one-task instance file with one field swapped out.
std::string InstanceText(const std::string& now, const std::string& worker0,
                         const std::string& task0, const std::string& q01) {
  return "casc-instance v1\nnow " + now + " min_group 2\nworkers 2\n" +
         worker0 + "\n1 0.2 0.2 0.5 0.5 0\ntasks 1\n" + task0 +
         "\ncoop\n0 " + q01 + "\n0.5 0\nend\n";
}

TEST(InstanceIoTest, MalformedCorpusIsRejectedWithAMessage) {
  const std::string worker = "0 0.1 0.1 0.5 0.5 0";
  const std::string task = "0 0.15 0.15 1 5 2";
  {
    std::stringstream stream(InstanceText("0", worker, task, "0.5"));
    ASSERT_TRUE(LoadInstance(&stream).ok()) << "the unmodified template";
  }
  const MalformedInstance corpus[] = {
      {"bad magic", "casc-assignment v1\n",
       "expected 'casc-instance', got 'casc-assignment'"},
      {"nan now", InstanceText("nan", worker, task, "0.5"), "bad now"},
      {"overflowing now", InstanceText("1e999", worker, task, "0.5"),
       "bad now"},
      {"min_group below 2",
       "casc-instance v1\nnow 0 min_group 1\nworkers 0\n", "bad min_group"},
      {"infinite x", InstanceText("0", "0 inf 0.1 0.5 0.5 0", task, "0.5"),
       "bad worker record 0"},
      {"nan speed", InstanceText("0", "0 0.1 0.1 nan 0.5 0", task, "0.5"),
       "bad worker record 0"},
      {"negative radius",
       InstanceText("0", "0 0.1 0.1 0.5 -0.5 0", task, "0.5"),
       "worker record 0: radius must be non-negative"},
      {"infinite create_time",
       InstanceText("0", worker, "0 0.15 0.15 -inf 5 2", "0.5"),
       "bad task record 0"},
      {"overflowing deadline",
       InstanceText("0", worker, "0 0.15 0.15 1 1e999 2", "0.5"),
       "bad task record 0"},
      {"deadline before create_time",
       InstanceText("0", worker, "0 0.15 0.15 5 1 2", "0.5"),
       "task record 0: deadline precedes create_time"},
      {"capacity below min_group",
       InstanceText("0", worker, "0 0.15 0.15 1 5 1", "0.5"),
       "task capacity below min_group"},
      {"nan coop cell", InstanceText("0", worker, task, "nan"),
       "bad coop cell"},
      {"coop cell above 1", InstanceText("0", worker, task, "1.5"),
       "coop quality out of [0,1]"},
      {"missing end",
       "casc-instance v1\nnow 0 min_group 2\nworkers 0\ntasks 0\ncoop\n",
       "expected 'end', got ''"},
  };
  for (const MalformedInstance& entry : corpus) {
    std::stringstream stream(entry.text);
    const Result<Instance> loaded = LoadInstance(&stream);
    ASSERT_FALSE(loaded.ok()) << entry.label;
    EXPECT_NE(loaded.status().message().find(entry.message),
              std::string::npos)
        << entry.label << ": got '" << loaded.status().message() << "'";
  }
}

TEST(InstanceIoTest, EmptyInstanceRoundTrips) {
  Instance empty({}, {}, CooperationMatrix(0), 0.0, 2);
  std::stringstream stream;
  ASSERT_TRUE(SaveInstance(empty, &stream).ok());
  Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_workers(), 0);
  EXPECT_EQ(loaded->num_tasks(), 0);
}

// ---------------------------------------------------------------------------
// Assignment round trip
// ---------------------------------------------------------------------------

TEST(AssignmentIoTest, RoundTrip) {
  const Instance instance = RandomInstance(30, 12, 5);
  TpgAssigner tpg;
  const Assignment original = tpg.Run(instance);
  std::stringstream stream;
  ASSERT_TRUE(SaveAssignment(original, &stream).ok());
  Result<Assignment> loaded = LoadAssignment(instance, &stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Pairs(), original.Pairs());
  EXPECT_DOUBLE_EQ(TotalScore(instance, *loaded),
                   TotalScore(instance, original));
}

TEST(AssignmentIoTest, EmptyAssignmentRoundTrips) {
  const Instance instance = RandomInstance(5, 2, 6);
  const Assignment empty(instance);
  std::stringstream stream;
  ASSERT_TRUE(SaveAssignment(empty, &stream).ok());
  Result<Assignment> loaded = LoadAssignment(instance, &stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumAssigned(), 0);
}

TEST(AssignmentIoTest, RejectsOutOfRangeIndices) {
  const Instance instance = RandomInstance(5, 2, 7);
  std::stringstream stream(
      "casc-assignment v1\n"
      "pairs 1\n"
      "99 0\n"
      "end\n");
  const Result<Assignment> loaded = LoadAssignment(instance, &stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
}

TEST(AssignmentIoTest, RejectsATaskOverCapacity) {
  const Instance instance = RandomInstance(12, 2, 9);
  const int capacity = instance.tasks()[0].capacity;
  for (const int extra : {1, 3}) {
    const int pairs = capacity + extra;
    ASSERT_LE(pairs, instance.num_workers());
    std::string text =
        "casc-assignment v1\npairs " + std::to_string(pairs) + "\n";
    for (int w = 0; w < pairs; ++w) text += std::to_string(w) + " 0\n";
    text += "end\n";
    std::stringstream stream(text);
    const Result<Assignment> loaded = LoadAssignment(instance, &stream);
    ASSERT_FALSE(loaded.ok()) << "capacity + " << extra;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(loaded.status().message(),
              "pair record " + std::to_string(capacity) +
                  ": task 0 is already at its capacity " +
                  std::to_string(capacity));
  }
}

/// One malformed assignment file and the message its rejection must carry.
struct MalformedAssignment {
  const char* label;
  const char* text;
  const char* message;  ///< substring of the returned Status message
};

TEST(AssignmentIoTest, MalformedCorpusIsRejectedWithAMessage) {
  const Instance instance = RandomInstance(5, 2, 8);
  const MalformedAssignment corpus[] = {
      {"bad magic", "casc-instance v1\npairs 0\nend\n",
       "expected 'casc-assignment', got 'casc-instance'"},
      {"bad version", "casc-assignment v2\npairs 0\nend\n",
       "expected 'v1', got 'v2'"},
      {"negative count", "casc-assignment v1\npairs -1\nend\n",
       "bad pair count"},
      {"short record", "casc-assignment v1\npairs 2\n0 0\n1\n",
       "bad pair record"},
      {"out-of-range index", "casc-assignment v1\npairs 1\n0 7\nend\n",
       "pair indexes out of range"},
      {"duplicate worker", "casc-assignment v1\npairs 2\n0 0\n0 1\nend\n",
       "pair record 1: worker 0 listed twice"},
      {"missing end", "casc-assignment v1\npairs 1\n0 0\n",
       "expected 'end', got ''"},
  };
  for (const MalformedAssignment& entry : corpus) {
    std::stringstream stream(entry.text);
    const Result<Assignment> loaded = LoadAssignment(instance, &stream);
    ASSERT_FALSE(loaded.ok()) << entry.label;
    EXPECT_NE(loaded.status().message().find(entry.message),
              std::string::npos)
        << entry.label << ": got '" << loaded.status().message() << "'";
  }
}

}  // namespace
}  // namespace casc
