#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"

namespace innet::util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kInternal, StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(9);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 9);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 20 && !any_diff; ++i) {
    any_diff = a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30);
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    int64_t k = rng.UniformInt(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

// A positive spread draws exactly what std::normal_distribution draws; a
// zero spread returns the mean without tripping its stddev > 0
// precondition and leaves the rest of the stream where a positive spread
// would.
TEST(RngTest, NormalZeroSpreadKeepsTheStream) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Normal(2.0, 3.0),
              std::normal_distribution<double>(2.0, 3.0)(b.engine()));
  }
  Rng zero(11);
  Rng unit(11);
  EXPECT_EQ(zero.Normal(5.0, 0.0), 5.0);
  unit.Normal(5.0, 1.0);
  EXPECT_EQ(zero.Uniform(), unit.Uniform());
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 40);
  EXPECT_EQ(sample.size(), 40u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(9);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, WeightedIndexRespectsZeros) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedIndex(weights), 1u);
  }
}

TEST(RngTest, WeightedIndexRoughlyProportional) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedIndex(weights)];
  double frac = static_cast<double>(counts[1]) / 10000.0;
  EXPECT_NEAR(frac, 0.75, 0.03);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(5);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  bool differ = false;
  for (int i = 0; i < 10 && !differ; ++i) {
    differ = child1.UniformInt(0, 1 << 30) != child2.UniformInt(0, 1 << 30);
  }
  EXPECT_TRUE(differ);
}

TEST(StatsTest, PercentileBasics) {
  std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.25), 2.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.9), 9.0);
}

TEST(StatsTest, SummarizeMatchesHandComputation) {
  Summary s = Summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(StatsTest, RelativeError) {
  EXPECT_DOUBLE_EQ(RelativeError(10.0, 9.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(10.0, 11.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(RelativeError(-4.0, -2.0), 0.5);
}

TEST(StatsTest, AccumulatorCollects) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  acc.Add(1.0);
  acc.Add(3.0);
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_DOUBLE_EQ(acc.Summarize().median, 2.0);
}

TEST(TableTest, AlignedRendering) {
  Table t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", Table::Num(1.5, 2)});
  t.AddRow({"b", "200"});
  std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("demo"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("1.50"), std::string::npos);
}

TEST(TableTest, CsvRendering) {
  Table t("demo");
  t.SetHeader({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(FlagsTest, EqualsAndSpaceSyntax) {
  FlagParser flags({"generate", "--count=5", "--name", "hello", "--x=1.5"});
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"generate"}));
  EXPECT_EQ(flags.GetInt("count", 0), 5);
  EXPECT_EQ(flags.GetString("name"), "hello");
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0.0), 1.5);
}

TEST(FlagsTest, BareBooleanFlags) {
  // Positionals come first by convention: `--flag token` would otherwise
  // bind the token as the flag's value.
  FlagParser flags({"cmd", "--verbose", "--dry-run"});
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_TRUE(flags.Has("dry-run"));
  EXPECT_TRUE(flags.GetBool("dry-run"));
  EXPECT_FALSE(flags.GetBool("absent"));
  EXPECT_TRUE(flags.GetBool("absent", true));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"cmd"}));
}

TEST(FlagsTest, FlagConsumesFollowingToken) {
  FlagParser flags({"--mode", "fast", "--check"});
  EXPECT_EQ(flags.GetString("mode"), "fast");
  EXPECT_TRUE(flags.GetBool("check"));
  EXPECT_TRUE(flags.positional().empty());
}

TEST(FlagsTest, BooleanValues) {
  FlagParser flags({"--a=true", "--b=false", "--c=1", "--d=no", "--e=maybe"});
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c"));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_TRUE(flags.GetBool("e", true));  // Unparsable -> fallback.
}

TEST(FlagsTest, DefaultsOnMissingOrBadValues) {
  FlagParser flags({"--count=abc", "--rate", "--name=x"});
  EXPECT_EQ(flags.GetInt("count", 7), 7);        // Unparsable.
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 2.5), 2.5);  // Bare.
  EXPECT_EQ(flags.GetInt("missing", -1), -1);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
}

TEST(FlagsTest, BareFlagFollowedByFlag) {
  FlagParser flags({"--a", "--b=2"});
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_EQ(flags.GetInt("b", 0), 2);
}

TEST(FlagsTest, UnusedFlagTracking) {
  FlagParser flags({"--used=1", "--typo=2"});
  EXPECT_EQ(flags.GetInt("used", 0), 1);
  std::vector<std::string> unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  // Busy-wait a tiny, bounded amount.
  volatile double sink = 0.0;
  for (int i = 0; i < 200000; ++i) sink = sink + i * 0.5;
  double elapsed = timer.ElapsedSeconds();
  EXPECT_GT(elapsed, 0.0);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_NEAR(timer.ElapsedMicros(), timer.ElapsedSeconds() * 1e6,
              timer.ElapsedMicros() * 0.5);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), elapsed + 1.0);
}

TEST(FlagsTest, ArgcArgvConstructor) {
  const char* argv[] = {"prog", "run", "--n=3"};
  FlagParser flags(3, argv);
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"run"}));
  EXPECT_EQ(flags.GetInt("n", 0), 3);
}

}  // namespace
}  // namespace innet::util
