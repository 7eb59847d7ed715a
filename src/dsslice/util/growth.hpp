// Capacity-growth accounting for reusable scratch buffers.
//
// Every workspace on the sweep's per-scenario step (GeneratorScratch,
// SchedulerWorkspace, BatchSliceKernel, ScenarioScratch's estimate buffers)
// recycles its vectors between scenarios and sizes them through one
// GrowthCounter. grow_events() counts every time a managed buffer had to
// grow its capacity, so a test can warm a workspace, re-run the same
// shapes, and assert the counter did not move: the allocation-free claim
// is enforced, not assumed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dsslice {

class GrowthCounter {
 public:
  /// Number of capacity growths across all managed buffers since
  /// construction. Stable counter ⇒ the warm path ran allocation-free.
  std::uint64_t grow_events() const { return grow_events_; }

  /// vec.assign(count, value) with growth accounting.
  template <typename T>
  void fill(std::vector<T>& vec, std::size_t count, const T& value) {
    note(vec.capacity(), count);
    vec.assign(count, value);
  }

  /// vec.resize(count) (new values value-initialized) with growth
  /// accounting.
  template <typename T>
  void size(std::vector<T>& vec, std::size_t count) {
    note(vec.capacity(), count);
    vec.resize(count);
  }

  /// Growth-accounted push_back for buffers filled incrementally.
  template <typename T>
  void push(std::vector<T>& vec, const T& value) {
    note(vec.capacity(), vec.size() + 1);
    vec.push_back(value);
  }

  /// Growth-accounted push_back of a moved-from value.
  template <typename T>
  void push_move(std::vector<T>& vec, T&& value) {
    note(vec.capacity(), vec.size() + 1);
    vec.push_back(std::move(value));
  }

  /// Ensures capacity for `count` elements; a buffer that must grow is
  /// reserved to the larger of `count` and `hint`, so it jumps straight to
  /// the largest shape seen so far instead of growing again on a later,
  /// slightly larger scenario.
  template <typename T>
  void reserve(std::vector<T>& vec, std::size_t count, std::size_t hint) {
    if (vec.capacity() < count) {
      ++grow_events_;
      vec.reserve(std::max(count, hint));
    }
  }

  /// Records a growth observed from outside (a buffer the owner sized
  /// itself): counts one when `capacity_after` exceeds `capacity_before`.
  void note(std::size_t capacity_before, std::size_t capacity_after) {
    if (capacity_after > capacity_before) {
      ++grow_events_;
    }
  }

 private:
  std::uint64_t grow_events_ = 0;
};

}  // namespace dsslice
