// Branch-free primitives of the per-scenario step: each must return exactly
// what the branching or library form it stands in for returns. ctest runs
// these in the Release, sanitizer and TSan builds, and scripts/check.sh
// runs them again with -march=x86-64-v3, where the compiler may emit
// popcnt, roundsd and cmov for them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include "dsslice/sched/scheduler_workspace.hpp"
#include "dsslice/util/branch_free.hpp"

namespace dsslice {
namespace {

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_round_matches(double x) {
  EXPECT_EQ(bits_of(round_half_away(x)), bits_of(std::round(x)))
      << "x = " << x << " (0x" << std::hex << bits_of(x) << ")";
}

TEST(BranchFree, RoundMatchesStdRoundOnEdgeValues) {
  const double two52 = 4503599627370496.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double below_half = std::nextafter(0.5, 0.0);  // 0.49999999999999994
  const double edges[] = {
      0.0,         -0.0,         0.5,          -0.5,
      below_half,  -below_half,  1.5,          -1.5,
      2.5,         -2.5,         two52 - 0.5,  -(two52 - 0.5),
      two52 + 0.5, -(two52 + 0.5), two52,      -two52,
      two52 + 1.0, -(two52 + 1.0), 2.0 * two52 + 2.0, 1e300,
      inf,         -inf,         std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::nextafter(1.5, 0.0), std::nextafter(1.5, 2.0)};
  for (const double x : edges) {
    expect_round_matches(x);
  }
  // A quiet NaN of either sign keeps its bits.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_round_matches(nan);
  expect_round_matches(-nan);
}

TEST(BranchFree, RoundMatchesStdRoundOnRandomDoubles) {
  std::mt19937_64 rng(0x5eedf00dULL);
  std::uniform_real_distribution<double> moderate(-1e6, 1e6);
  std::uniform_int_distribution<std::int64_t> halves(-(std::int64_t{1} << 40),
                                                     std::int64_t{1} << 40);
  for (int i = 0; i < 1000000; ++i) {
    // Every bit pattern but NaNs (a signalling NaN comes back quieted from
    // std::round), values at the generator's scale, and exact halves.
    double any = std::bit_cast<double>(rng());
    if (std::isnan(any)) {
      any = 0.0;
    }
    expect_round_matches(any);
    expect_round_matches(moderate(rng));
    expect_round_matches(static_cast<double>(halves(rng)) / 2.0);
  }
}

TEST(BranchFree, PopcountMatchesStdPopcount) {
  const std::uint64_t edges[] = {0,
                                 1,
                                 ~std::uint64_t{0},
                                 std::uint64_t{1} << 63,
                                 0x5555555555555555ULL,
                                 0xaaaaaaaaaaaaaaaaULL,
                                 0x00ff00ff00ff00ffULL,
                                 0x8000000000000001ULL};
  for (const std::uint64_t x : edges) {
    EXPECT_EQ(popcount64(x), std::popcount(x)) << std::hex << x;
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t x = rng();
    // Dense, sparse and single-word-run patterns.
    for (const std::uint64_t y : {x, x & rng(), x | rng(), x >> (i % 64)}) {
      ASSERT_EQ(popcount64(y), std::popcount(y)) << std::hex << y;
    }
  }
}

TEST(BranchFree, ChooseKeepsTheBitsOfThePickedOperand) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(bits_of(choose(true, -0.0, 0.0)), bits_of(-0.0));
  EXPECT_EQ(bits_of(choose(false, -0.0, 0.0)), bits_of(0.0));
  EXPECT_EQ(bits_of(choose(true, -nan, 1.0)), bits_of(-nan));
  EXPECT_EQ(choose(false, 1.0, std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(choose(true, std::uint32_t{7}, ~std::uint32_t{0}), 7u);
  EXPECT_EQ(choose(false, std::uint32_t{7}, ~std::uint32_t{0}),
            ~std::uint32_t{0});
  EXPECT_EQ(choose(true, std::int64_t{-5}, std::int64_t{9}), -5);
}

// Random keys drawn from small pools force ties in the first key, in the
// second, and in both, and mix -0.0 with 0.0 so that only the id can
// decide between them. Whatever the push order and however pushes and
// pops interleave, the heap must pop exactly the (key…, id) sorted order.
TEST(TaskHeap, PopsInSortedKeyIdOrderUnderTies) {
  using Heap = TaskHeap<2>;
  const double pool[] = {-0.0, 0.0, 1.0, 2.5, 2.5, -3.0, 1e9, 7.0};
  std::mt19937_64 rng(20261019);
  std::uniform_int_distribution<std::size_t> pick(0, std::size(pool) - 1);
  Heap heap;
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 90);
    std::vector<Heap::Entry> entries;
    for (std::size_t i = 0; i < n; ++i) {
      entries.push_back(
          {{pool[pick(rng)], pool[pick(rng)]}, static_cast<NodeId>(i)});
    }
    std::shuffle(entries.begin(), entries.end(), rng);
    heap.reset(n);
    const std::size_t capacity = heap.capacity();
    std::vector<Heap::Entry> live;
    std::vector<NodeId> popped;
    std::vector<NodeId> expected;
    const auto pop_and_expect = [&] {
      const auto min = std::min_element(
          live.begin(), live.end(), [](const auto& a, const auto& b) {
            return std::tie(a.key[0], a.key[1], a.id) <
                   std::tie(b.key[0], b.key[1], b.id);
          });
      expected.push_back(min->id);
      live.erase(min);
      popped.push_back(heap.pop());
    };
    for (const Heap::Entry& e : entries) {
      heap.push(e);
      live.push_back(e);
      if (rng() % 3 == 0) {
        pop_and_expect();
      }
    }
    while (!heap.empty()) {
      pop_and_expect();
    }
    ASSERT_EQ(popped, expected) << "round " << round;
    EXPECT_EQ(heap.capacity(), capacity);  // reset(n) made room for all n
  }
}

TEST(TaskHeap, SingleKeyTopIsTheMinimum) {
  TaskHeap<1> heap;
  heap.reset(4);
  heap.push({{0.0}, 3});
  heap.push({{-0.0}, 1});
  heap.push({{5.0}, 0});
  heap.push({{-1.0}, 2});
  EXPECT_EQ(heap.top().id, 2u);
  EXPECT_EQ(heap.pop(), 2u);
  EXPECT_EQ(heap.pop(), 1u);  // -0.0 ties 0.0; the lower id wins
  EXPECT_EQ(heap.pop(), 3u);
  EXPECT_EQ(heap.pop(), 0u);
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace dsslice
