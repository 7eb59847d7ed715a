#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "dsslice/gen/rng.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  SplitMix64 c(43);
  EXPECT_NE(SplitMix64(42).next(), c.next());
}

TEST(Xoshiro, DeterministicAndSeedSensitive) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  Xoshiro256 c(8);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    any_diff |= (x != c.next());
  }
  EXPECT_TRUE(any_diff);
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro, UniformRespectsRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
  EXPECT_DOUBLE_EQ(rng.uniform(4.0, 4.0), 4.0);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ConfigError);
}

TEST(Xoshiro, UniformIntInclusiveBoundsAndCoverage) {
  Xoshiro256 rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
  EXPECT_EQ(rng.uniform_int(-4, -4), -4);
  EXPECT_THROW(rng.uniform_int(2, 1), ConfigError);
}

TEST(Xoshiro, UniformIntIsRoughlyUniform) {
  Xoshiro256 rng(1234);
  std::size_t counts[4] = {0, 0, 0, 0};
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    ++counts[rng.uniform_int(0, 3)];
  }
  for (const std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 4.0, trials * 0.02);
  }
}

// The two-division rejection rule uniform_int used before its one-division
// form: reject x >= floor((2^64-1)/span)·span, draw from the raw stream.
std::int64_t two_division_uniform_int(Xoshiro256& raw, std::int64_t lo,
                                      std::int64_t hi) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {
    return static_cast<std::int64_t>(raw.next());
  }
  const std::uint64_t limit = (~std::uint64_t{0} / span) * span;
  std::uint64_t x;
  do {
    x = raw.next();
  } while (x >= limit);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   x % span);
}

TEST(Xoshiro, UniformIntMatchesTwoDivisionRejection) {
  constexpr std::uint64_t k2_32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t k2_63 = std::uint64_t{1} << 63;
  constexpr std::int64_t kLo = -(std::int64_t{1} << 62);
  // Spans 2^63 and 2^63 + 1 reject about half the draws, so the rejection
  // loop runs; 0 stands for the full 64-bit range.
  for (const std::uint64_t span : {std::uint64_t{1}, std::uint64_t{2},
                                   std::uint64_t{3}, std::uint64_t{5},
                                   k2_32 - 1, k2_32 + 1, k2_63, k2_63 + 1,
                                   std::uint64_t{0}}) {
    const std::int64_t lo = span == 0 ? INT64_MIN : kLo;
    const auto hi = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(lo) + span - 1);
    Xoshiro256 rng(span * 31 + 7);
    Xoshiro256 raw(span * 31 + 7);
    for (int i = 0; i < 4096; ++i) {
      ASSERT_EQ(rng.uniform_int(lo, hi),
                two_division_uniform_int(raw, lo, hi))
          << "span " << span << " draw " << i;
    }
    EXPECT_EQ(rng.next(), raw.next()) << "span " << span;  // same position
  }
}

TEST(Xoshiro, BernoulliMatchesProbability) {
  Xoshiro256 rng(777);
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.bernoulli(0.05) ? 1 : 0;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.05, 0.01);
  EXPECT_FALSE(Xoshiro256(1).bernoulli(0.0));
  EXPECT_TRUE(Xoshiro256(1).bernoulli(1.0));
  EXPECT_THROW(rng.bernoulli(1.5), ConfigError);
}

TEST(DeriveSeed, StableAndDistinct) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    seeds.insert(derive_seed(42, k));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(derive_seed(1, 5), derive_seed(2, 5));
}

}  // namespace
}  // namespace dsslice
