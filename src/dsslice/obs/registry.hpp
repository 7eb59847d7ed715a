// Aggregation half of the observability layer: merges the per-thread
// recorders of obs/trace.hpp into named, deterministic snapshots.
//
// Quiescence contract: metrics_snapshot / trace_snapshot / reset lock out
// buffer creation and retirement, but recording threads write their own
// buffers without synchronization. Call these only while no instrumented
// code is running (drivers snapshot after their batch / pool work has
// drained) — exactly how every exporter in this repo uses them. The
// streaming path (obs/stream.hpp) is the one consumer exempt from this
// contract: its drains read the rings through their published write indices
// and touch only monotone accumulators, so they run concurrently with
// recorders. Do not call reset() while a StreamSink is active — the sink's
// delta encoding assumes accumulators never move backwards.
//
// Determinism: aggregate counts, integer nanosecond totals, and histogram
// buckets are sums of per-thread integers merged in name order, so a
// workload whose per-item instrumentation is deterministic yields
// bit-identical aggregate counts no matter how many threads partitioned it
// (pinned by tests/test_obs.cpp). Gauge `last` takes the value of the
// highest-numbered thread that recorded one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dsslice/obs/trace.hpp"
#include "dsslice/util/stats.hpp"

namespace dsslice::obs {

/// Aggregated statistics of one span name.
struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  LogHistogram hist;

  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
  /// The histogram interpolates within a bucket up to the bucket's upper
  /// edge, so its estimate is clamped to the observed [min_ns, max_ns]: one
  /// span reports its own duration at every percentile.
  double percentile_ns(double p) const {
    const double estimate = hist.percentile(p);
    return count == 0 ? estimate
                      : std::clamp(estimate, static_cast<double>(min_ns),
                                   static_cast<double>(max_ns));
  }
};

/// Aggregated statistics of one counter name.
struct CounterStats {
  std::uint64_t count = 0;  ///< number of DSSLICE_COUNT calls
  double total = 0.0;       ///< sum of deltas (exact for integral deltas)
};

/// Aggregated statistics of one gauge name.
struct GaugeStats {
  std::uint64_t count = 0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Deterministically merged aggregate of every thread's recorder.
struct MetricsSnapshot {
  std::map<std::string, SpanStats> spans;
  std::map<std::string, CounterStats> counters;
  std::map<std::string, GaugeStats> gauges;
  /// Span events evicted from some thread's ring by wraparound. Aggregate
  /// statistics above are exact regardless (they bypass the ring).
  std::uint64_t dropped_ring_events = 0;
  /// Events lost to accumulator-table saturation (0 in practice).
  std::uint64_t dropped_accum_events = 0;
  /// Threads that ever recorded (live + retired).
  std::uint32_t thread_count = 0;

  bool empty() const {
    return spans.empty() && counters.empty() && gauges.empty();
  }
};

/// One completed span for timeline export, with thread attribution.
struct TraceSpan {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
  std::uint16_t depth = 0;
};

/// The surviving ring contents of every thread, sorted by start time.
struct TraceSnapshot {
  std::vector<TraceSpan> spans;
  std::uint64_t dropped = 0;  ///< spans lost to ring wraparound
};

/// Aggregates every thread's accumulators (see quiescence contract above).
MetricsSnapshot metrics_snapshot();

/// Drains every thread's span ring (see quiescence contract above).
TraceSnapshot trace_snapshot();

/// Clears all recorded data — live thread buffers and retired remains —
/// without touching the enabled flag. Requires quiescence.
void reset();

/// Ring capacity (span events per thread) applied to threads that start
/// recording after the call; existing buffers keep their capacity. Set
/// before enabling for full effect.
void set_ring_capacity(std::size_t capacity);
std::size_t ring_capacity();

/// Number of heap allocations the layer has ever performed (one per
/// recording thread). Stable while disabled — asserted by the zero-
/// allocation regression test.
std::uint64_t internal_allocations();

}  // namespace dsslice::obs
