// Tests for the CLI flag parser and CSV export helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "harness/args.h"
#include "harness/csv.h"

namespace gocast::harness {
namespace {

Args parse(std::vector<std::string> tokens,
           const std::vector<std::string>& allowed) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  storage.insert(storage.begin(), "prog");
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return Args(static_cast<int>(argv.size()), argv.data(), allowed);
}

TEST(Args, ParsesEqualsAndSpaceForms) {
  Args args = parse({"--nodes=64", "--rate", "50.5", "--verbose"},
                    {"nodes", "rate", "verbose"});
  EXPECT_EQ(args.get_int("nodes", 0), 64);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 50.5);
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Args, FallbacksWhenAbsent) {
  Args args = parse({}, {"nodes"});
  EXPECT_FALSE(args.has("nodes"));
  EXPECT_EQ(args.get_int("nodes", 7), 7);
  EXPECT_EQ(args.get("nodes", "x"), "x");
  EXPECT_FALSE(args.get_bool("nodes", false));
}

TEST(Args, PositionalArgumentsCollected) {
  Args args = parse({"alpha", "--n=1", "beta"}, {"n"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(Args, BoolRecognizesTrueForms) {
  Args args = parse({"--a=true", "--b=1", "--c=yes", "--d=false"},
                    {"a", "b", "c", "d"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Args, RejectsTrailingCharactersAndOverflow) {
  Args args = parse({"--nodes=12abc", "--rate", "1.5x", "--big",
                     "99999999999999999999", "--huge=1e999", "--empty="},
                    {"nodes", "rate", "big", "huge", "empty"});
  EXPECT_THROW((void)args.get_int("nodes", 0), AssertionError);
  EXPECT_THROW((void)args.get_count("nodes", 0), AssertionError);
  EXPECT_THROW((void)args.get_double("rate", 0.0), AssertionError);
  EXPECT_THROW((void)args.get_int("big", 0), AssertionError);
  EXPECT_THROW((void)args.get_double("huge", 0.0), AssertionError);
  EXPECT_THROW((void)args.get_int("empty", 0), AssertionError);
}

TEST(Args, CountsRejectNegativeValues) {
  Args args = parse({"--nodes", "-5", "--messages=0", "--payload=64"},
                    {"nodes", "messages", "payload", "seed"});
  EXPECT_THROW((void)args.get_count("nodes", 8), AssertionError);
  EXPECT_EQ(args.get_int("nodes", 8), -5);  // plain integers may be negative
  EXPECT_EQ(args.get_count("messages", 4), 0u);
  EXPECT_EQ(args.get_count("payload", 512), 64u);
  EXPECT_EQ(args.get_count("seed", 7), 7u);
}

TEST(Args, CountListsCheckEveryElement) {
  Args args = parse({"--curve-points", "8192,32768", "--one=64", "--neg=1,-2",
                     "--junk=5,6x", "--gap=5,,6", "--trail=5,"},
                    {"curve-points", "one", "neg", "junk", "gap", "trail",
                     "absent"});
  EXPECT_EQ(args.get_counts("curve-points", {}),
            (std::vector<std::size_t>{8192, 32768}));
  EXPECT_EQ(args.get_counts("one", {}), (std::vector<std::size_t>{64}));
  EXPECT_EQ(args.get_counts("absent", {1, 2}),
            (std::vector<std::size_t>{1, 2}));
  EXPECT_THROW((void)args.get_counts("neg", {}), AssertionError);
  EXPECT_THROW((void)args.get_counts("junk", {}), AssertionError);
  EXPECT_THROW((void)args.get_counts("gap", {}), AssertionError);
  EXPECT_THROW((void)args.get_counts("trail", {}), AssertionError);
}

TEST(Args, BenchFlagsRejectWrappedAndMalformedValues) {
  // The perf_scaling forms: a negative shard count must not wrap to a huge
  // unsigned one, and a horizon or seed with junk must not parse as a
  // prefix.
  Args args = parse({"--shards", "-3", "--seconds", "10s", "--seed=7e3",
                     "--nodes", "1e4", "--sweep", "--threads", "2"},
                    {"shards", "seconds", "seed", "nodes", "sweep", "threads"});
  EXPECT_THROW((void)args.get_count("shards", 1), AssertionError);
  EXPECT_THROW((void)args.get_double("seconds", 60.0), AssertionError);
  EXPECT_THROW((void)args.get_count("seed", 1), AssertionError);
  EXPECT_THROW((void)args.get_count("nodes", 8192), AssertionError);
  EXPECT_TRUE(args.get_bool("sweep", false));  // bare flag before another
  EXPECT_EQ(args.get_count("threads", 0), 2u);
}

TEST(Csv, WritesCurve) {
  std::string path = ::testing::TempDir() + "/curve_test.csv";
  write_curve_csv(path, {{0.0, 0.1}, {0.5, 0.8}, {1.0, 1.0}});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "delay_seconds,fraction");
  std::getline(in, line);
  EXPECT_EQ(line, "0,0.1");
  std::remove(path.c_str());
}

TEST(Csv, WritesCurveFamilyOnSharedGrid) {
  std::string path = ::testing::TempDir() + "/curves_test.csv";
  std::vector<std::vector<analysis::DeliveryTracker::CurvePoint>> curves{
      {{0.0, 0.0}, {1.0, 1.0}},
      {{0.0, 0.0}, {2.0, 0.5}},
  };
  write_curves_csv(path, {"fast", "slow"}, curves, 5);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "delay_seconds,fast,slow");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 5);
  std::remove(path.c_str());
}

TEST(Csv, AppendsSummaryWithHeaderOnce) {
  std::string path = ::testing::TempDir() + "/summary_test.csv";
  std::remove(path.c_str());
  ScenarioResult result;
  result.deliveries = 10;
  result.duplicates = 1;
  append_summary_csv(path, "gocast", 64, 0.0, result);
  append_summary_csv(path, "gossip", 64, 0.2, result);
  std::ifstream in(path);
  int lines = 0;
  std::string line;
  int headers = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.rfind("protocol,", 0) == 0) ++headers;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_EQ(headers, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gocast::harness
