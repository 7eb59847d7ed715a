// Deterministic pseudo-random number generation for the workload generator.
//
// We implement SplitMix64 (seeding / stream derivation) and xoshiro256**
// (bulk generation) rather than rely on std::mt19937 so that generated
// workloads are bit-reproducible across standard libraries and platforms —
// experiment seeds quoted in EXPERIMENTS.md must regenerate the same
// workloads everywhere.
#pragma once

#include <bit>
#include <cstdint>

#include "dsslice/util/check.hpp"

namespace dsslice {

/// SplitMix64: tiny, full-period 2^64 generator; used to expand one user
/// seed into independent stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality 64-bit PRNG.
class Xoshiro256 {
 public:
  /// Seeds all 256 bits from the given seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed);

  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the top 53 bits of one draw.
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    DSSLICE_REQUIRE(lo <= hi, "uniform range inverted");
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in the inclusive range [lo, hi] (unbiased via
  /// rejection sampling).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    DSSLICE_REQUIRE(lo <= hi, "uniform_int range inverted");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) {  // full 64-bit range
      return static_cast<std::int64_t>(next());
    }
    // Rejects x >= floor((2^64-1)/span)·span, the top partial block, with
    // one division: x - x % span is x's block start, and the block is
    // partial exactly when it starts above 2^64-1-span.
    std::uint64_t x;
    std::uint64_t r;
    do {
      x = next();
      r = x % span;
    } while (x - r > ~std::uint64_t{0} - span);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r);
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) {
    DSSLICE_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    return next_double() < p;
  }

 private:
  std::uint64_t s_[4];
};

/// Derives an independent child seed from (base, index) — stable across
/// runs, used to give each generated graph its own stream so batches can be
/// generated in parallel in any order.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

}  // namespace dsslice
