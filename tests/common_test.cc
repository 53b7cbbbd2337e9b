#include <algorithm>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "gtest/gtest.h"

namespace mpc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kParseError, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kCapacityExceeded,
        StatusCode::kUnsupported, StatusCode::kInternal,
        StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Status FailsThenPropagates() {
  MPC_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowIsInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, BelowCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.Between(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, HeadIsMoreFrequentThanTail) {
  Rng rng(17);
  ZipfSampler zipf(100, 1.1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[50] * 3);
  EXPECT_GT(counts[0], 500);
}

TEST(ZipfTest, SamplesInRange) {
  Rng rng(19);
  ZipfSampler zipf(7, 0.9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 7u);
}

// RadixSortBy is stable and orders by key on both sides of its
// comparison-sort cutoff, whatever digits the keys share.
TEST(RadixSortTest, MatchesStableSort) {
  struct Item {
    uint32_t key;
    uint32_t seq;
    bool operator==(const Item&) const = default;
  };
  Rng rng(31);
  std::vector<Item> buffer;
  for (size_t n : {0, 1, 2, 255, 256, 257, 5000}) {
    // All equal, one shared high digit, 16-bit keys, the full 32 bits.
    for (uint64_t range : {1ULL, 1ULL << 8, 1ULL << 16, 1ULL << 32}) {
      std::vector<Item> items;
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t key = static_cast<uint32_t>(rng.Below(range));
        if (range > (1ULL << 16) && rng.Chance(0.1)) {
          key = rng.Chance(0.5) ? 0 : UINT32_MAX;
        }
        items.push_back({key, i});
      }
      std::vector<Item> expected = items;
      std::stable_sort(
          expected.begin(), expected.end(),
          [](const Item& a, const Item& b) { return a.key < b.key; });
      RadixSortBy(&items, &buffer, [](const Item& it) { return it.key; });
      EXPECT_TRUE(items == expected) << "n " << n << " range " << range;
    }
  }
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("<http://x>", "<"));
  EXPECT_FALSE(StartsWith("x", "xy"));
  EXPECT_TRUE(EndsWith("file.nt", ".nt"));
  EXPECT_FALSE(EndsWith("nt", ".nt"));
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(106909064), "106,909,064");
}

TEST(StringUtilTest, FormatDoubleAndMillis) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatMillis(34512.4), "34,512");
}

TEST(HashTest, U64AvalanchesAndIsDeterministic) {
  EXPECT_EQ(HashU64(42), HashU64(42));
  EXPECT_NE(HashU64(42), HashU64(43));
  // Low bits should differ even for adjacent inputs.
  EXPECT_NE(HashU64(1) & 0xFF, HashU64(2) & 0xFF);
}

TEST(HashTest, StringHash) {
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(HashTest, CombineOrderMatters) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

/// Installs a capture sink for the test's lifetime and restores the
/// previous sink (and log level) on exit.
class ScopedCaptureLog {
 public:
  explicit ScopedCaptureLog(size_t capacity = 1024)
      : sink_(capacity),
        previous_(SetLogSink(&sink_)),
        level_(GetLogLevel()) {}
  ~ScopedCaptureLog() {
    SetLogSink(previous_);
    SetLogLevel(level_);
  }
  CaptureLogSink& sink() { return sink_; }

 private:
  CaptureLogSink sink_;
  LogSink* previous_;
  LogLevel level_;
};

TEST(LoggingTest, CaptureSinkReceivesCompleteLines) {
  ScopedCaptureLog capture;
  SetLogLevel(LogLevel::kInfo);
  MPC_LOG(Info) << "hello " << 42;
  MPC_LOG(Warning) << "watch out";
  std::vector<std::string> lines = capture.sink().Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("INFO"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("hello 42"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[0].back(), '\n');
  EXPECT_NE(lines[1].find("watch out"), std::string::npos) << lines[1];
  // No tracing active: no span tag in the header.
  EXPECT_EQ(lines[0].find("span="), std::string::npos) << lines[0];
}

TEST(LoggingTest, LevelThresholdFiltersBeforeTheSink) {
  ScopedCaptureLog capture;
  SetLogLevel(LogLevel::kWarning);
  MPC_LOG(Info) << "dropped";
  MPC_LOG(Error) << "kept";
  std::vector<std::string> lines = capture.sink().Lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("kept"), std::string::npos);
}

TEST(LoggingTest, RingBufferKeepsNewestAndCountsDropped) {
  ScopedCaptureLog capture(/*capacity=*/2);
  SetLogLevel(LogLevel::kInfo);
  for (int i = 0; i < 5; ++i) {
    MPC_LOG(Info) << "line " << i;
  }
  std::vector<std::string> lines = capture.sink().Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("line 3"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("line 4"), std::string::npos) << lines[1];
  EXPECT_EQ(capture.sink().dropped(), 3u);
  capture.sink().Clear();
  EXPECT_TRUE(capture.sink().Lines().empty());
}

TEST(LoggingTest, SpanIdProviderTagsLines) {
  ScopedCaptureLog capture;
  SetLogLevel(LogLevel::kInfo);
  SetLogSpanIdProvider([]() -> uint64_t { return 7; });
  MPC_LOG(Info) << "tagged";
  SetLogSpanIdProvider(nullptr);
  MPC_LOG(Info) << "untagged";
  std::vector<std::string> lines = capture.sink().Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("span=7"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].find("span="), std::string::npos) << lines[1];
}

}  // namespace
}  // namespace mpc
