// parse_number (common/parse.hpp): a numeric flag takes the whole token or
// nothing — no sign, no trailing characters, no silent wrap — and the bench
// flags built on it exit 2 naming the flag.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "runner/bench_cli.hpp"

using mempool::parse_number;

TEST(ParseNumber, RejectsAnythingButAWholeTokenThatFits) {
  for (const char* bad :
       {"abc", "-1", "12x", "", "4294967296", "+1", " 1", "1 ", "0x10"}) {
    unsigned v = 7;
    EXPECT_FALSE(parse_number(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "a rejected token must leave the value untouched";
  }
}

TEST(ParseNumber, AcceptsEveryValueOfTheDestinationType) {
  unsigned u = 7;
  EXPECT_TRUE(parse_number("0", &u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(parse_number("4294967295", &u));
  EXPECT_EQ(u, std::numeric_limits<unsigned>::max());

  uint64_t w = 0;
  EXPECT_TRUE(parse_number("18446744073709551615", &w));
  EXPECT_EQ(w, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(parse_number("18446744073709551616", &w));

  int i = 0;
  EXPECT_TRUE(parse_number("2147483647", &i));
  EXPECT_EQ(i, std::numeric_limits<int>::max());
  EXPECT_FALSE(parse_number("2147483648", &i));
  EXPECT_FALSE(parse_number("-5", &i));
}

TEST(ParseNumber, FloatingPointTakesAPlainDecimalFraction) {
  double d = -1;
  EXPECT_TRUE(parse_number("0.5", &d));
  EXPECT_EQ(d, 0.5);
  EXPECT_TRUE(parse_number("2", &d));
  EXPECT_EQ(d, 2.0);
  for (const char* bad : {"-0.5", "1e3", "inf", "nan", ".5", "0.5x", ""}) {
    double v = -1;
    EXPECT_FALSE(parse_number(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, -1);
  }
}

namespace {

/// parse_bench_options over "bench @p args...", as a bench main calls it.
void parse_bench_args(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  (void)mempool::runner::parse_bench_options(&argc, argv.data(), "bench");
}

}  // namespace

TEST(BenchCliFlags, MalformedCountsExitTwoNamingTheFlag) {
  EXPECT_EXIT(parse_bench_args({"--threads", "4294967297"}),
              ::testing::ExitedWithCode(2), "--threads wants");
  EXPECT_EXIT(parse_bench_args({"--threads", "0"}),
              ::testing::ExitedWithCode(2), "--threads wants");
  EXPECT_EXIT(parse_bench_args({"--sim-threads", "2x"}),
              ::testing::ExitedWithCode(2), "--sim-threads wants");
  EXPECT_EXIT(parse_bench_args({"--stall-horizon", "-1"}),
              ::testing::ExitedWithCode(2), "--stall-horizon wants");
}
