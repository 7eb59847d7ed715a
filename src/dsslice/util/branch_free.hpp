// Branch-free forms of scalar primitives the per-scenario step applies to
// random data (docs/PERFORMANCE.md, "Branches on random data").
//
// The library builds for baseline x86-64, where std::round is a call into
// libm and std::popcount a call into libgcc's __popcountdi2. The helpers
// below are inline, contain no data-dependent branch, and return exactly
// the bits of the form they replace (pinned by tests/test_branch_free.cpp,
// which also runs in the x86-64-v3 build).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

namespace dsslice {

/// std::round, bit for bit: rounds half away from zero, keeps the sign of
/// zero, and returns NaN and ±∞ unchanged. For |x| < 2^52, adding and
/// subtracting 2^52 rounds |x| to the nearest integer with ties to even
/// (both steps are exact in the default rounding mode); a tie that went
/// down to the even neighbour is then moved up by one. From 2^52 on every
/// double is an integer, so |x| is kept as is. The tie test and the final
/// select compare bit patterns as integers: a non-negative double orders
/// like its bits, and integer compares become flag sets and masks where a
/// floating-point compare would become a branch.
inline double round_half_away(double x) {
  constexpr double kTwo52 = 4503599627370496.0;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const double a = std::fabs(x);
  const double even = (a + kTwo52) - kTwo52;
  const bool tie = bits(even - a) == bits(-0.5);
  const std::uint64_t away = bits(even + static_cast<double>(tie));
  const std::uint64_t small = std::uint64_t{0} - (bits(a) < bits(kTwo52));
  return std::bit_cast<double>((away & small) | (bits(a) & ~small) |
                               (bits(x) & kSign));
}

/// `pick ? a : b` for a 32- or 64-bit scalar, as a mask: GCC turns a
/// ternary whose operands live in memory into a jump, but keeps and/or.
template <typename T>
T choose(bool pick, T a, T b) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  using Bits =
      std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
  const Bits mask = Bits{0} - static_cast<Bits>(pick);
  return std::bit_cast<T>((std::bit_cast<Bits>(a) & mask) |
                          (std::bit_cast<Bits>(b) & ~mask));
}

/// std::popcount of a 64-bit word as a SWAR sum: bit pairs, then nibbles,
/// then bytes, folded into the top byte by one multiply.
inline int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace dsslice
