// util: RNG determinism and distribution sanity, string helpers.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <set>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace fmossim {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 100; ++i) differs |= a2.next() != c.next();
  EXPECT_TRUE(differs);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(3);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values of a small range must appear";
}

TEST(RngTest, ChanceExtremesAndRoughFairness) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
  int heads = 0;
  for (int i = 0; i < 2000; ++i) heads += rng.chance(0.5) ? 1 : 0;
  EXPECT_GT(heads, 850);
  EXPECT_LT(heads, 1150);
}

TEST(RngTest, SampleIndicesAreDistinctAndComplete) {
  Rng rng(6);
  const auto sample = rng.sampleIndices(20, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::set<std::uint32_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 10u);
  for (const auto v : sample) EXPECT_LT(v, 20u);
  const auto full = rng.sampleIndices(5, 5);
  EXPECT_EQ(std::set<std::uint32_t>(full.begin(), full.end()).size(), 5u);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(StringsTest, SplitWhitespace) {
  const auto t = splitWhitespace("  a  bb\tccc \n d ");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[3], "d");
  EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto t = split("a=b", '=');
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "b");
  const auto u = split("x==y", '=');
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u[1], "");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringsTest, StartsWithAndUpper) {
  EXPECT_TRUE(startsWith("INPUT(a)", "INPUT"));
  EXPECT_FALSE(startsWith("IN", "INPUT"));
  EXPECT_EQ(toUpper("nAnD2"), "NAND2");
}

TEST(StringsTest, ParseDecimalIsStrict) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const struct {
    const char* text;
    std::uint64_t maxValue;
    std::optional<std::uint64_t> want;
  } cases[] = {
      {"", kMax, std::nullopt},
      {"+1", kMax, std::nullopt},
      {"-1", kMax, std::nullopt},
      {" 1", kMax, std::nullopt},
      {"1 ", kMax, std::nullopt},
      {"12abc", kMax, std::nullopt},
      {"0", kMax, 0},
      {"007", kMax, 7},
      {"18446744073709551615", kMax, kMax},
      {"18446744073709551616", kMax, std::nullopt},
      {"99999999999999999999", kMax, std::nullopt},
      {"1000009", 1000009, 1000009},
      {"1000010", 1000009, std::nullopt},
      {"0001000009", 1000009, 1000009},
      {"4294967295", 0xffffffffULL, 0xffffffffULL},
      {"4294967296", 0xffffffffULL, std::nullopt},
      {"0", 0, 0},
      {"1", 0, std::nullopt},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parseDecimal(c.text, c.maxValue), c.want)
        << "'" << c.text << "' max " << c.maxValue;
  }
}

TEST(StringsTest, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%.2f", 1.5), "1.50");
  EXPECT_EQ(format("plain"), "plain");
}

}  // namespace
}  // namespace fmossim
