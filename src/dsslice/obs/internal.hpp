// Internal shared state of the observability layer: the per-thread buffer
// written by trace.cpp's record functions and drained by registry.cpp's
// snapshots and stream.cpp's concurrent sink. Not part of the public API —
// include obs/trace.hpp, obs/registry.hpp or obs/stream.hpp instead.
//
// Concurrency model (the streaming-drain contract):
//  * Every ThreadBuffer has exactly one writer — its owning thread. All
//    mutating members are therefore single-writer; atomics exist so a
//    concurrent drainer (obs/stream.cpp) reads coherent values, never to
//    serialize writers against each other.
//  * Ring publication: the writer fills a slot with relaxed stores, then
//    release-stores the incremented `ring_written`. A drainer that
//    acquire-loads `ring_written` sees every slot below it fully written.
//    Slots at or above the published index may be mid-overwrite, which the
//    drainer handles by re-reading the index after copying and discarding
//    anything the writer could have lapped (see stream.cpp).
//  * Accumulator publication: scalar fields are relaxed atomics (plain
//    loads/stores on mainstream hardware — the enabled-path cost contract
//    of obs/trace.hpp is unchanged). A new table entry publishes its `name`
//    with a release store after `kind` is set, so a drainer that
//    acquire-loads a non-null name sees a valid entry. Histograms are NOT
//    atomic: they are read only at quiescence (metrics_snapshot) — the
//    streaming sink skips them.
//  * `ring_drained` (the sink's cursor) and the retired stores are guarded
//    by Registry::mutex(); recording threads never touch either.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsslice/obs/trace.hpp"
#include "dsslice/util/stats.hpp"

namespace dsslice::obs::detail {

/// Plain value of one completed span, as copied out of a ring slot.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint16_t depth = 0;
};

/// One ring slot. Atomic members make the concurrent drain race-free;
/// ordering comes from the ring_written publish, not from these fields.
struct RingEvent {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> end_ns{0};
  std::atomic<std::uint16_t> depth{0};

  void store(const SpanRecord& record) {
    name.store(record.name, std::memory_order_relaxed);
    start_ns.store(record.start_ns, std::memory_order_relaxed);
    end_ns.store(record.end_ns, std::memory_order_relaxed);
    depth.store(record.depth, std::memory_order_relaxed);
  }
  SpanRecord load() const {
    SpanRecord record;
    record.name = name.load(std::memory_order_relaxed);
    record.start_ns = start_ns.load(std::memory_order_relaxed);
    record.end_ns = end_ns.load(std::memory_order_relaxed);
    record.depth = depth.load(std::memory_order_relaxed);
    return record;
  }
};

/// Plain, mergeable accumulator values — what snapshots and the streaming
/// sink work with once data has left the single-writer tables.
struct AccumData {
  const char* name = nullptr;
  EventKind kind = EventKind::kSpan;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ns = 0;
  double total = 0.0;
  double last = 0.0;
  double min_value = std::numeric_limits<double>::infinity();
  double max_value = -std::numeric_limits<double>::infinity();
  LogHistogram hist;

  void merge(const AccumData& other);
};

/// Per-name accumulator slot. Spans fill the ns fields and the histogram;
/// counters fill total/count; gauges fill last/min/max/count. Scalars are
/// single-writer atomics so the streaming sink can read them mid-run; the
/// histogram is quiescence-only (see the header comment).
struct Accum {
  std::atomic<const char*> name{nullptr};  // release-published on claim
  EventKind kind = EventKind::kSpan;       // written before name publishes
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> min_ns{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_ns{0};
  std::atomic<double> total{0.0};
  std::atomic<double> last{0.0};
  std::atomic<double> min_value{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_value{-std::numeric_limits<double>::infinity()};
  LogHistogram hist;

  /// Coherent value copy. Histogram copying requires quiescence; the
  /// streaming sink passes include_hist = false.
  AccumData data(bool include_hist) const;
};

/// Fixed-capacity per-thread recording state. Created lazily on a thread's
/// first recorded event (the only allocation the layer ever performs on a
/// recording thread); registered with the Registry for snapshotting and
/// retired — merged into the registry — when the thread exits.
struct ThreadBuffer {
  /// Open-addressed accumulator table, keyed by name pointer. 256 slots is
  /// ~4× the taxonomy's size; saturation drops events into lost_accums.
  static constexpr std::size_t kAccumSlots = 256;
  static constexpr std::size_t kAccumLoadLimit = 192;

  explicit ThreadBuffer(std::size_t capacity);

  std::uint32_t tid = 0;                  // registration order, for export
  std::unique_ptr<RingEvent[]> ring;      // fixed capacity, wraps
  std::size_t ring_capacity = 0;
  /// Total pushes ever (may exceed ring_capacity). Release-stored after the
  /// slot write — the ring's publication point for concurrent drains.
  std::atomic<std::uint64_t> ring_written{0};
  /// Streaming sink cursor: ring indices below it have been consumed (or
  /// counted dropped). Guarded by Registry::mutex(); 0 when no sink ran.
  std::uint64_t ring_drained = 0;
  std::array<Accum, kAccumSlots> accums{};
  std::size_t accum_used = 0;             // owner-thread only
  std::atomic<std::uint64_t> lost_accums{0};  // table-saturation drops

  Accum* find_or_create(const char* name, EventKind kind);
  void record_span(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint16_t depth);
  void add_counter(const char* name, double delta);
  void set_gauge(const char* name, double value);
  void clear();  // requires quiescence (obs::reset contract)
};

/// Accumulator fold of the whole process at one instant: retired threads
/// first (name order), then live threads in tid order — the same
/// deterministic order metrics_snapshot always used, shared with the
/// streaming sink so its cumulative values reconcile bit-for-bit.
struct CollectedMetrics {
  std::map<std::string, AccumData> accums;
  std::uint64_t dropped_accum_events = 0;
  std::uint32_t thread_count = 0;
};

class Registry;

/// Folds every accumulator table under the registry mutex (caller holds
/// it). include_hist requires quiescence.
CollectedMetrics collect_metrics_locked(Registry& registry,
                                        bool include_hist);

/// Process-wide registry of thread buffers plus the merged remains of
/// exited threads. A deliberately leaked singleton (kept reachable through
/// a static pointer, so LeakSanitizer stays quiet) so worker-thread exit
/// hooks can always reach it regardless of static destruction order.
class Registry {
 public:
  static Registry& instance();

  ThreadBuffer* create_buffer();
  /// Thread-exit hook: merges the buffer's accumulators and ring events
  /// into the retired stores, then deletes the buffer. When a stream hook
  /// is attached it runs first (under the mutex) so the sink can drain the
  /// not-yet-consumed tail of the dying thread's ring.
  void retire(ThreadBuffer* buffer);

  /// Snapshot/maintenance entry points (see obs/registry.hpp for the
  /// public wrappers and the quiescence contract).
  template <typename Fn>
  void for_each_buffer_locked(Fn&& fn) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (ThreadBuffer* buffer : live_) {
      fn(*buffer);
    }
  }

  std::mutex& mutex() { return mu_; }
  const std::vector<ThreadBuffer*>& live() const { return live_; }
  const std::map<std::string, AccumData>& retired_accums() const {
    return retired_accums_;
  }
  struct RetiredEvent {
    SpanRecord event;
    std::uint32_t tid = 0;
  };
  const std::vector<RetiredEvent>& retired_events() const {
    return retired_events_;
  }
  std::uint64_t retired_ring_written() const { return retired_ring_written_; }
  std::uint64_t retired_lost_accums() const { return retired_lost_accums_; }
  std::uint32_t thread_count() const { return next_tid_; }

  void reset_locked();

  /// Streaming-sink attachment (one sink at a time). The hook runs inside
  /// retire(), under the registry mutex, before the buffer is merged away.
  using StreamHook = std::function<void(ThreadBuffer&)>;
  bool attach_stream_hook(StreamHook hook);
  void detach_stream_hook();

  void count_allocation() {
    allocations_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t allocations() const {
    return allocations_.load(std::memory_order_relaxed);
  }

  /// Ring capacity applied to buffers created from now on.
  void set_ring_capacity(std::size_t capacity);
  std::size_t ring_capacity() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

 private:
  Registry() = default;

  std::mutex mu_;
  std::vector<ThreadBuffer*> live_;
  std::uint32_t next_tid_ = 0;
  std::map<std::string, AccumData> retired_accums_;
  std::vector<RetiredEvent> retired_events_;
  std::uint64_t retired_ring_written_ = 0;
  std::uint64_t retired_lost_accums_ = 0;
  StreamHook stream_hook_;
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::size_t> ring_capacity_{8192};
};

}  // namespace dsslice::obs::detail
