#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace casc {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 2.5);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.5);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{7}));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{3});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(19);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, TruncatedGaussianStaysInBound) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    const double g = rng.TruncatedGaussian(1.0);
    EXPECT_GE(g, -1.0);
    EXPECT_LE(g, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ZipfRangeAndSkew) {
  Rng rng(37);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t z = rng.Zipf(10, 1.5);
    EXPECT_GE(z, 1u);
    EXPECT_LE(z, 10u);
    counts[z]++;
  }
  // Rank 1 must dominate rank 10 decisively for s = 1.5.
  EXPECT_GT(counts[1], counts[10] * 5);
}

TEST(RngTest, ZipfHandlesChangingParameters) {
  Rng rng(41);
  EXPECT_LE(rng.Zipf(5, 1.0), 5u);
  EXPECT_LE(rng.Zipf(50, 2.0), 50u);
  EXPECT_LE(rng.Zipf(5, 1.0), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(47);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[static_cast<size_t>(i)] = i;
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, items);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(51);
  Rng b = a.Split();
  // The two streams should not be identical.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad flag");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad flag");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad flag");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("hello"));
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "hello");
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, SplitBasic) {
  const auto parts = StrSplit("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = StrSplit(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitEmptyString) {
  const auto parts = StrSplit("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, JoinRoundTrip) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, "--"), "x--y--z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("no-ws"), "no-ws");
}

TEST(StringsTest, ParseDoubleValid) {
  double value = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &value));
  EXPECT_DOUBLE_EQ(value, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e-3 ", &value));
  EXPECT_DOUBLE_EQ(value, -1e-3);
}

TEST(StringsTest, ParseDoubleInvalid) {
  double value = 0.0;
  EXPECT_FALSE(ParseDouble("", &value));
  EXPECT_FALSE(ParseDouble("abc", &value));
  EXPECT_FALSE(ParseDouble("1.5x", &value));
}

TEST(StringsTest, ParseInt64Valid) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("-42", &value));
  EXPECT_EQ(value, -42);
  EXPECT_TRUE(ParseInt64("  7 ", &value));
  EXPECT_EQ(value, 7);
}

TEST(StringsTest, ParseInt64Invalid) {
  int64_t value = 0;
  EXPECT_FALSE(ParseInt64("", &value));
  EXPECT_FALSE(ParseInt64("12.5", &value));
  EXPECT_FALSE(ParseInt64("x", &value));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

// ---------------------------------------------------------------------------
// FlagParser
// ---------------------------------------------------------------------------

TEST(FlagParserTest, DefaultsSurviveEmptyArgv) {
  FlagParser flags;
  flags.DefineInt64("m", 1000, "workers");
  flags.DefineDouble("eps", 0.05, "epsilon");
  flags.DefineString("mode", "gt", "mode");
  flags.DefineBool("verbose", false, "log more");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt64("m"), 1000);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps"), 0.05);
  EXPECT_EQ(flags.GetString("mode"), "gt");
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser flags;
  flags.DefineInt64("m", 0, "");
  flags.DefineDouble("eps", 0.0, "");
  const char* argv[] = {"prog", "--m=123", "--eps=0.5"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(flags.GetInt64("m"), 123);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps"), 0.5);
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser flags;
  flags.DefineInt64("m", 0, "");
  const char* argv[] = {"prog", "--m", "77"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_EQ(flags.GetInt64("m"), 77);
}

TEST(FlagParserTest, BareBoolSetsTrue) {
  FlagParser flags;
  flags.DefineBool("verbose", false, "");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, BoolExplicitValues) {
  FlagParser flags;
  flags.DefineBool("a", false, "");
  flags.DefineBool("b", true, "");
  const char* argv[] = {"prog", "--a=true", "--b=false"};
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b"));
}

TEST(FlagParserTest, UnknownFlagFails) {
  FlagParser flags;
  const char* argv[] = {"prog", "--mystery=1"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, BadValueFails) {
  FlagParser flags;
  flags.DefineInt64("m", 0, "");
  const char* argv[] = {"prog", "--m=abc"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, MissingValueFails) {
  FlagParser flags;
  flags.DefineInt64("m", 0, "");
  const char* argv[] = {"prog", "--m"};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, PositionalArgumentsCollected) {
  FlagParser flags;
  flags.DefineBool("x", false, "");
  const char* argv[] = {"prog", "one", "--x", "two"};
  ASSERT_TRUE(flags.Parse(4, argv).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "one");
  EXPECT_EQ(flags.positional()[1], "two");
}

TEST(FlagParserTest, UsageListsFlags) {
  FlagParser flags;
  flags.DefineInt64("workers", 10, "how many workers");
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--workers"), std::string::npos);
  EXPECT_NE(usage.find("how many workers"), std::string::npos);
}

TEST(FlagParserTest, ValueBelowRangeFailsNamingFlagAndRange) {
  FlagParser flags;
  flags.DefineInt64("workers", 10, "", 0, FlagParser::kIntMax);
  const char* argv[] = {"prog", "--workers=-5"};
  const Status status = flags.Parse(2, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--workers"), std::string::npos);
  EXPECT_NE(status.message().find("[0, 2147483647]"), std::string::npos);
  EXPECT_EQ(flags.GetInt64("workers"), 10) << "rejected value stored";
}

TEST(FlagParserTest, ValueAboveRangeFails) {
  FlagParser flags;
  flags.DefineInt64("shards", 4, "", 1, 64);
  const char* argv[] = {"prog", "--shards", "65"};
  const Status status = flags.Parse(3, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[1, 64]"), std::string::npos);
  EXPECT_EQ(flags.GetInt64("shards"), 4);
}

TEST(FlagParserTest, ValueBeyondIntLimitsFails) {
  // 2^32 + 100 fits in int64 but would wrap to 100 when cast to int.
  FlagParser flags;
  flags.DefineInt64("workers", 10, "", 0, FlagParser::kIntMax);
  const char* wrap[] = {"prog", "--workers=4294967396"};
  EXPECT_FALSE(flags.Parse(2, wrap).ok());
  const char* edge[] = {"prog", "--workers=2147483648"};
  EXPECT_FALSE(flags.Parse(2, edge).ok());
  const char* max[] = {"prog", "--workers=2147483647"};
  ASSERT_TRUE(flags.Parse(2, max).ok());
  EXPECT_EQ(flags.GetInt64("workers"), FlagParser::kIntMax);
}

TEST(FlagParserTest, DoubleBelowRangeFailsNamingFlagAndRange) {
  FlagParser flags;
  flags.DefineDouble("drop", 0.1, "", 0.0, 1.0);
  const char* argv[] = {"prog", "--drop=-0.5"};
  const Status status = flags.Parse(2, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--drop"), std::string::npos);
  EXPECT_NE(status.message().find("[0, 1]"), std::string::npos);
  EXPECT_DOUBLE_EQ(flags.GetDouble("drop"), 0.1) << "rejected value stored";

  // A range with only a lower bound reads as half-open.
  flags.DefineDouble("epsilon", 0.05, "", 0.0);
  const char* open[] = {"prog", "--epsilon=-1"};
  const Status open_status = flags.Parse(2, open);
  ASSERT_FALSE(open_status.ok());
  EXPECT_NE(open_status.message().find("[0, inf)"), std::string::npos)
      << open_status.message();
}

TEST(FlagParserTest, DoubleAboveRangeFails) {
  FlagParser flags;
  flags.DefineDouble("drop", 0.1, "", 0.0, 1.0);
  const char* argv[] = {"prog", "--drop", "2"};
  const Status status = flags.Parse(3, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--drop"), std::string::npos);
  EXPECT_NE(status.message().find("[0, 1]"), std::string::npos);
  EXPECT_DOUBLE_EQ(flags.GetDouble("drop"), 0.1);
  // Both ends of the range are inclusive.
  const char* edge[] = {"prog", "--drop=1"};
  ASSERT_TRUE(flags.Parse(2, edge).ok());
  EXPECT_DOUBLE_EQ(flags.GetDouble("drop"), 1.0);
}

TEST(FlagParserTest, DoubleNanFailsEvenWithoutRange) {
  FlagParser flags;
  flags.DefineDouble("crash_time", 1.0, "");
  for (const char* bad : {"--crash_time=nan", "--crash_time=NaN",
                          "--crash_time=-nan"}) {
    const char* argv[] = {"prog", bad};
    const Status status = flags.Parse(2, argv);
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_NE(status.message().find("--crash_time"), std::string::npos);
    EXPECT_NE(status.message().find("not a finite number"),
              std::string::npos);
  }
  EXPECT_DOUBLE_EQ(flags.GetDouble("crash_time"), 1.0);
}

TEST(FlagParserTest, DoubleInfinityFailsEvenWithoutRange) {
  FlagParser flags;
  flags.DefineDouble("task-rate", 14.0, "");
  for (const char* bad : {"--task-rate=inf", "--task-rate=-inf",
                          "--task-rate=infinity", "--task-rate=1e999"}) {
    const char* argv[] = {"prog", bad};
    const Status status = flags.Parse(2, argv);
    ASSERT_FALSE(status.ok()) << bad;
    EXPECT_NE(status.message().find("--task-rate"), std::string::npos);
  }
  EXPECT_DOUBLE_EQ(flags.GetDouble("task-rate"), 14.0);
}

TEST(FlagParserTest, ParseOrExitReturnsOnValidFlags) {
  FlagParser flags;
  flags.DefineInt64("workers", 10, "how many workers");
  const char* argv[] = {"prog", "--workers=5"};
  flags.ParseOrExit(2, argv);
  EXPECT_EQ(flags.GetInt64("workers"), 5);
}

TEST(FlagParserDeathTest, ParseOrExitReportsUnknownFlag) {
  FlagParser flags;
  flags.DefineInt64("workers", 10, "how many workers");
  const char* argv[] = {"bench/bench_fig7", "--mystery=1"};
  // The Status message, then the usage named after argv[0]'s basename.
  EXPECT_EXIT(flags.ParseOrExit(2, argv), ::testing::ExitedWithCode(1),
              "unknown flag --mystery\n"
              "usage: bench_fig7 \\[flags\\]\n"
              "  --workers \\(int64\\): how many workers");
}

TEST(FlagParserDeathTest, ParseOrExitReportsMalformedValue) {
  FlagParser flags;
  flags.DefineDouble("epsilon", 0.05, "TSI stop threshold");
  const char* argv[] = {"prog", "--epsilon=fast"};
  EXPECT_EXIT(flags.ParseOrExit(2, argv), ::testing::ExitedWithCode(1),
              "flag --epsilon: bad double value 'fast'.*usage: prog");
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

TEST(LoggingTest, GlobalLevelRoundTrips) {
  const LogLevel original = GlobalLogLevel();
  SetGlobalLogLevel(LogLevel::kError);
  EXPECT_EQ(GlobalLogLevel(), LogLevel::kError);
  SetGlobalLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GlobalLogLevel(), LogLevel::kDebug);
  SetGlobalLogLevel(original);
}

TEST(LoggingTest, MacroCompilesAndStreams) {
  const LogLevel original = GlobalLogLevel();
  // Suppressed messages must still evaluate safely.
  SetGlobalLogLevel(LogLevel::kError);
  CASC_LOG(kDebug) << "invisible " << 42;
  SetGlobalLogLevel(original);
}

// ---------------------------------------------------------------------------
// CHECK macros (death tests)
// ---------------------------------------------------------------------------

TEST(CheckDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(
      { CASC_CHECK(1 == 2) << "custom context"; }, "CHECK failed");
}

TEST(CheckDeathTest, ComparisonMacroReportsOperands) {
  EXPECT_DEATH({ CASC_CHECK_EQ(3, 4); }, "lhs=3");
}

TEST(CheckDeathTest, PassingChecksAreSilent) {
  CASC_CHECK(true);
  CASC_CHECK_EQ(2, 2);
  CASC_CHECK_LT(1, 2);
  CASC_CHECK_GE(2, 2);
  CASC_CHECK_NE(1, 2);
  CASC_CHECK_LE(2, 2);
  CASC_CHECK_GT(3, 2);
}

TEST(CheckDeathTest, ResultValueOnErrorAborts) {
  Result<int> result(Status::NotFound("gone"));
  EXPECT_DEATH({ (void)result.value(); }, "Result::value");
}

// ---------------------------------------------------------------------------
// SummaryStats
// ---------------------------------------------------------------------------

TEST(SummaryStatsTest, EmptyIsAllZero) {
  SummaryStats stats;
  EXPECT_EQ(stats.Count(), 0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.StdError(), 0.0);
}

TEST(SummaryStatsTest, KnownMoments) {
  SummaryStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.Count(), 8);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(stats.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
}

TEST(SummaryStatsTest, WelfordMatchesDirectOnRandomData) {
  Rng rng(71);
  SummaryStats stats;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Gaussian(3.0, 2.0);
    values.push_back(v);
    stats.Add(v);
  }
  double sum = 0.0;
  for (const double v : values) sum += v;
  const double mean = sum / 1000;
  double sq = 0.0;
  for (const double v : values) sq += (v - mean) * (v - mean);
  EXPECT_NEAR(stats.Mean(), mean, 1e-9);
  EXPECT_NEAR(stats.Variance(), sq / 999, 1e-9);
}

TEST(SummaryStatsTest, ToStringMentionsFields) {
  SummaryStats stats;
  stats.Add(1.0);
  stats.Add(3.0);
  const std::string text = stats.ToString(1);
  EXPECT_NE(text.find("2.0"), std::string::npos);  // mean
  EXPECT_NE(text.find("n=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stopwatch
// ---------------------------------------------------------------------------

TEST(StopwatchTest, ElapsedIsMonotone) {
  Stopwatch watch;
  const double t1 = watch.ElapsedSeconds();
  const double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

TEST(StopwatchTest, UnitsAgree) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double seconds = watch.ElapsedSeconds();
  const double millis = watch.ElapsedMillis();
  EXPECT_GE(millis, seconds * 1e3 * 0.5);
}

TEST(AccumulatingTimerTest, AccumulatesIntervals) {
  AccumulatingTimer timer;
  EXPECT_DOUBLE_EQ(timer.TotalSeconds(), 0.0);
  timer.Start();
  timer.Stop();
  const double first = timer.TotalSeconds();
  EXPECT_GE(first, 0.0);
  timer.Start();
  timer.Stop();
  EXPECT_GE(timer.TotalSeconds(), first);
  timer.Reset();
  EXPECT_DOUBLE_EQ(timer.TotalSeconds(), 0.0);
}

TEST(AccumulatingTimerTest, StopWithoutStartIsNoop) {
  AccumulatingTimer timer;
  timer.Stop();
  EXPECT_DOUBLE_EQ(timer.TotalSeconds(), 0.0);
}

TEST(QuantileSketchTest, EmptySketchReturnsZero) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.Count(), 0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 0.0);
}

TEST(QuantileSketchTest, SingleSampleIsEveryQuantile) {
  QuantileSketch sketch;
  sketch.Add(3.25);
  EXPECT_EQ(sketch.Count(), 1);
  for (const double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sketch.Quantile(p), 3.25) << "p=" << p;
  }
}

TEST(QuantileSketchTest, TwoSamplesInterpolateLinearly) {
  QuantileSketch sketch;
  sketch.Add(10.0);
  sketch.Add(2.0);  // insertion order must not matter
  EXPECT_EQ(sketch.Count(), 2);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 6.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.25), 4.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 10.0);
}

TEST(QuantileSketchTest, ExactUnderCapacity) {
  QuantileSketch sketch(128);
  for (int i = 100; i >= 0; --i) sketch.Add(static_cast<double>(i));
  EXPECT_EQ(sketch.Count(), 101);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 100.0);
}

TEST(QuantileSketchTest, ThinningKeepsQuantilesApproximateAndDeterministic) {
  QuantileSketch a(64);
  QuantileSketch b(64);
  for (int i = 0; i < 10000; ++i) {
    a.Add(static_cast<double>(i));
    b.Add(static_cast<double>(i));
  }
  EXPECT_EQ(a.Count(), 10000);
  // Deterministic: no RNG anywhere, so two identical streams agree.
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Quantile(p), b.Quantile(p)) << "p=" << p;
  }
  // Systematic thinning keeps the sample spread over the whole stream.
  EXPECT_NEAR(a.Quantile(0.5), 5000.0, 1000.0);
  EXPECT_NEAR(a.Quantile(0.9), 9000.0, 1000.0);
  EXPECT_LE(a.Quantile(0.0), 1000.0);
  EXPECT_GE(a.Quantile(1.0), 9000.0);
}

TEST(QuantileSketchTest, ResetEmptiesTheSketch) {
  QuantileSketch sketch(8);
  for (int i = 0; i < 100; ++i) sketch.Add(static_cast<double>(i));
  sketch.Reset();
  EXPECT_EQ(sketch.Count(), 0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 0.0);
  sketch.Add(7.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 7.0);
}

}  // namespace
}  // namespace casc
