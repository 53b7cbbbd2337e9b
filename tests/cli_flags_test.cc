#include "common/flags.h"

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace mpc {
namespace {

/// argv helper: keeps the strings alive and hands out char* like main().
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (std::string& s : strings) pointers.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers.size()); }
  char** argv() { return pointers.data(); }

  std::vector<std::string> strings;
  std::vector<char*> pointers;
};

TEST(FlagParserTest, ParsesTypedFlagsAndPositionals) {
  std::string strategy = "mpc";
  uint32_t k = 8;
  double epsilon = 0.1;
  uint64_t seed = 1;
  int threads = 0;
  std::vector<uint32_t> sites;
  FlagParser parser;
  parser.AddString("strategy", &strategy);
  parser.AddUint32("k", &k);
  parser.AddDouble("epsilon", &epsilon);
  parser.AddUint64("seed", &seed);
  parser.AddInt("threads", &threads);
  parser.AddUint32List("fail-sites", &sites);

  Argv args({"prog", "data.nt", "--strategy=vp", "--k=4", "--epsilon=0.25",
             "--seed=123", "--threads=-1", "--fail-sites=0,3,7", "out"});
  Result<std::vector<std::string>> positional =
      parser.Parse(args.argc(), args.argv(), 1);
  ASSERT_TRUE(positional.ok()) << positional.status().ToString();
  EXPECT_EQ(*positional, (std::vector<std::string>{"data.nt", "out"}));
  EXPECT_EQ(strategy, "vp");
  EXPECT_EQ(k, 4u);
  EXPECT_DOUBLE_EQ(epsilon, 0.25);
  EXPECT_EQ(seed, 123u);
  EXPECT_EQ(threads, -1);
  EXPECT_EQ(sites, (std::vector<uint32_t>{0, 3, 7}));
}

TEST(FlagParserTest, ReportsWhichFlagsWereGiven) {
  int threads = 0;
  uint32_t k = 8;
  FlagParser parser;
  parser.AddInt("threads", &threads);
  parser.AddUint32("k", &k);
  // An explicit value equal to the default still counts as given.
  Argv args({"prog", "--threads=0", "data.nt"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), 1).ok());
  EXPECT_EQ(parser.given(), (std::set<std::string>{"threads"}));
  Argv none({"prog", "data.nt"});
  ASSERT_TRUE(parser.Parse(none.argc(), none.argv(), 1).ok());
  EXPECT_TRUE(parser.given().empty());
}

TEST(FlagParserTest, RejectsUnknownFlagNamingIt) {
  FlagParser parser;
  uint32_t k = 8;
  parser.AddUint32("k", &k);
  Argv args({"prog", "--kay=4"});
  Result<std::vector<std::string>> positional =
      parser.Parse(args.argc(), args.argv(), 1);
  ASSERT_FALSE(positional.ok());
  EXPECT_EQ(positional.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(positional.status().message().find("--kay"), std::string::npos)
      << positional.status().ToString();
}

TEST(FlagParserTest, RejectsFlagWithoutValue) {
  FlagParser parser;
  uint32_t k = 8;
  parser.AddUint32("k", &k);
  Argv args({"prog", "--k"});
  Result<std::vector<std::string>> positional =
      parser.Parse(args.argc(), args.argv(), 1);
  ASSERT_FALSE(positional.ok());
  EXPECT_NE(positional.status().message().find("--k"), std::string::npos);
}

TEST(FlagParserTest, RejectsMalformedNumbers) {
  FlagParser parser;
  uint32_t k = 8;
  double rate = 0.0;
  parser.AddUint32("k", &k);
  parser.AddDouble("fault-rate", &rate);
  for (const std::string& bad :
       {std::string("--k=8x"), std::string("--k=abc"),
        std::string("--fault-rate=0.1.2"), std::string("--k=")}) {
    Argv args({"prog", bad});
    Result<std::vector<std::string>> positional =
        parser.Parse(args.argc(), args.argv(), 1);
    EXPECT_FALSE(positional.ok()) << bad;
  }
  EXPECT_EQ(k, 8u);  // failed parses must not clobber defaults
}

TEST(FlagParserTest, RejectsMalformedListElement) {
  FlagParser parser;
  std::vector<uint32_t> sites;
  parser.AddUint32List("fail-sites", &sites);
  Argv args({"prog", "--fail-sites=0,x,2"});
  Result<std::vector<std::string>> positional =
      parser.Parse(args.argc(), args.argv(), 1);
  ASSERT_FALSE(positional.ok());
  EXPECT_TRUE(sites.empty());
}

TEST(FlagParserTest, EmptyListIsAllowed) {
  FlagParser parser;
  std::vector<uint32_t> sites{9};
  parser.AddUint32List("fail-sites", &sites);
  Argv args({"prog", "--fail-sites="});
  Result<std::vector<std::string>> positional =
      parser.Parse(args.argc(), args.argv(), 1);
  ASSERT_TRUE(positional.ok()) << positional.status().ToString();
  EXPECT_TRUE(sites.empty());
}

TEST(FlagParserTest, ChoiceRestrictsValues) {
  FlagParser parser;
  std::string policy = "fail";
  parser.AddChoice("partial-results", &policy, {"fail", "best-effort"});
  {
    Argv args({"prog", "--partial-results=best-effort"});
    ASSERT_TRUE(parser.Parse(args.argc(), args.argv(), 1).ok());
    EXPECT_EQ(policy, "best-effort");
  }
  {
    Argv args({"prog", "--partial-results=maybe"});
    Result<std::vector<std::string>> positional =
        parser.Parse(args.argc(), args.argv(), 1);
    ASSERT_FALSE(positional.ok());
    EXPECT_NE(positional.status().message().find("best-effort"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mpc
