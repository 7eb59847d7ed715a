#include "dsslice/gen/rng.hpp"

namespace dsslice {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) {
    s = sm.next();
  }
  // A state of all zeros is the one fixed point; SplitMix64 cannot produce
  // four zero outputs in a row, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  SplitMix64 sm(base ^ (0xA5A5A5A55A5A5A5AULL + index * 0x9E3779B97F4A7C15ULL));
  // Burn one output so adjacent indices diverge fully.
  sm.next();
  return sm.next();
}

}  // namespace dsslice
