// ArgParser's numeric accessors are strict: decimal or 0x hex only, no
// sign on unsigned values, no trailing text, no overflow, narrowing is
// range-checked, and doubles are finite and in range. A bad value exits 2
// with a message naming the flag instead of reaching the program as 0,
// a truncated prefix, or a wrapped value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/argparse.h"

namespace ht {
namespace {

// Parses `args` (flags only) against a parser declaring every flag the
// tests read.
class ArgParserNumbers : public ::testing::Test {
 protected:
  void SetUp() override { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }

  ArgParser& Parse(std::vector<std::string> args) {
    parser_.Option("cycles", "N", "").Option("seeds", "LIST", "").Option("generation", "G", "");
    parser_.Option("tenants", "N", "").Option("churn", "RATE", "");
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    EXPECT_TRUE(parser_.Parse(static_cast<int>(argv.size()), argv.data())) << parser_.error();
    return parser_;
  }

  ArgParser parser_{"prog", "test"};
};

TEST_F(ArgParserNumbers, AcceptsDecimalAndHexButNotOctal) {
  ArgParser& parser = Parse({"--seeds", "0x2a,010,0XFF,7", "--cycles=2000000"});
  EXPECT_EQ(parser.GetUints("seeds"), (std::vector<uint64_t>{42, 10, 255, 7}));
  EXPECT_EQ(parser.GetUint("cycles"), 2000000u);
}

TEST_F(ArgParserNumbers, SignedValuesTakeAMinusSign) {
  ArgParser& parser = Parse({"--generation", "-0x10", "--seeds", "-1,3"});
  EXPECT_EQ(parser.GetInt("generation"), -16);
  EXPECT_EQ(parser.GetInts("seeds"), (std::vector<int64_t>{-1, 3}));
}

TEST_F(ArgParserNumbers, ExponentIsNotAnInteger) {
  ArgParser& parser = Parse({"--cycles", "2e6"});
  EXPECT_EXIT(parser.GetUint("cycles"), ::testing::ExitedWithCode(2), "--cycles: '2e6'");
}

TEST_F(ArgParserNumbers, SignOnUnsignedIsRejected) {
  ArgParser& parser = Parse({"--tenants", "-1", "--cycles", "+5"});
  EXPECT_EXIT(parser.GetUint("tenants"), ::testing::ExitedWithCode(2), "--tenants");
  EXPECT_EXIT(parser.GetUint("cycles"), ::testing::ExitedWithCode(2), "--cycles");
}

TEST_F(ArgParserNumbers, TrailingGarbageInAListIsRejected) {
  ArgParser& parser = Parse({"--seeds", "1,2x,3", "--generation", "1.5"});
  EXPECT_EXIT(parser.GetUints("seeds"), ::testing::ExitedWithCode(2), "--seeds: '2x'");
  EXPECT_EXIT(parser.GetInt("generation"), ::testing::ExitedWithCode(2), "--generation");
}

TEST_F(ArgParserNumbers, OverflowIsRejected) {
  ArgParser& parser = Parse({"--cycles", "18446744073709551616", "--generation",
                             "9223372036854775808"});
  EXPECT_EXIT(parser.GetUint("cycles"), ::testing::ExitedWithCode(2), "--cycles");
  EXPECT_EXIT(parser.GetInt("generation"), ::testing::ExitedWithCode(2), "--generation");
}

TEST_F(ArgParserNumbers, NarrowingIsRangeChecked) {
  ArgParser& parser = Parse({"--tenants", "4294967296", "--generation", "-2147483649",
                             "--seeds", "1,4294967295"});
  EXPECT_EQ(parser.GetNumbers<uint32_t>("seeds"), (std::vector<uint32_t>{1, 4294967295u}));
  EXPECT_EXIT(parser.GetNumber<uint32_t>("tenants"), ::testing::ExitedWithCode(2),
              "--tenants: '4294967296' is out of range");
  EXPECT_EXIT(parser.GetNumber<int>("generation"), ::testing::ExitedWithCode(2),
              "--generation");
}

TEST_F(ArgParserNumbers, DoublesAreFiniteAndInRange) {
  ArgParser& parser = Parse({"--churn", "0.25"});
  EXPECT_DOUBLE_EQ(parser.GetDouble("churn", 0.0, 1.0), 0.25);
  for (const char* bad : {"nan", "inf", "abc", "0.5x", "1.5", "-0.1"}) {
    ArgParser other{"prog", "test"};
    other.Option("churn", "RATE", "");
    std::string flag = std::string("--churn=") + bad;
    char* argv[] = {const_cast<char*>("prog"), flag.data()};
    ASSERT_TRUE(other.Parse(2, argv));
    EXPECT_EXIT(other.GetDouble("churn", 0.0, 1.0), ::testing::ExitedWithCode(2), "--churn")
        << bad;
  }
}

TEST(ParseShard, RejectsSignsAndOverflow) {
  uint32_t index = 0;
  uint32_t count = 0;
  EXPECT_TRUE(ParseShard("2/3", &index, &count));
  EXPECT_EQ(index, 2u);
  EXPECT_EQ(count, 3u);
  EXPECT_FALSE(ParseShard("1/-1", &index, &count));
  EXPECT_FALSE(ParseShard("1/4294967296", &index, &count));
  EXPECT_FALSE(ParseShard(" 1/2", &index, &count));
  EXPECT_EQ(count, 3u);  // Untouched on failure.
}

}  // namespace
}  // namespace ht
