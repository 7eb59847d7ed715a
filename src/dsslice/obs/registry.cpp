#include "dsslice/obs/registry.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "dsslice/obs/internal.hpp"

namespace dsslice::obs {

namespace detail {

Registry& Registry::instance() {
  // Deliberately leaked but permanently reachable through this static
  // pointer: worker-thread exit hooks may run during static destruction,
  // and LeakSanitizer ignores reachable allocations.
  static Registry* const registry = new Registry();
  return *registry;
}

ThreadBuffer* Registry::create_buffer() {
  auto* buffer = new ThreadBuffer(ring_capacity());
  count_allocation();
  const std::lock_guard<std::mutex> lock(mu_);
  buffer->tid = next_tid_++;
  live_.push_back(buffer);
  return buffer;
}

void Registry::retire(ThreadBuffer* buffer) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (stream_hook_) {
    stream_hook_(*buffer);  // drain the unconsumed ring tail into the sink
  }
  live_.erase(std::remove(live_.begin(), live_.end(), buffer), live_.end());
  for (const Accum& a : buffer->accums) {
    if (a.name.load(std::memory_order_acquire) != nullptr) {
      const AccumData data = a.data(/*include_hist=*/true);
      AccumData& merged = retired_accums_[data.name];
      if (merged.name == nullptr) {  // first retirement under this name
        merged.name = data.name;
        merged.kind = data.kind;
      }
      merged.merge(data);
    }
  }
  const std::uint64_t written =
      buffer->ring_written.load(std::memory_order_acquire);
  const std::uint64_t kept =
      std::min<std::uint64_t>(written, buffer->ring_capacity);
  for (std::uint64_t k = written - kept; k < written; ++k) {
    retired_events_.push_back(RetiredEvent{
        buffer->ring[k % buffer->ring_capacity].load(), buffer->tid});
  }
  retired_ring_written_ += written;
  retired_lost_accums_ +=
      buffer->lost_accums.load(std::memory_order_relaxed);
  delete buffer;
}

void Registry::reset_locked() {
  for (ThreadBuffer* buffer : live_) {
    buffer->clear();
  }
  retired_accums_.clear();
  retired_events_.clear();
  retired_ring_written_ = 0;
  retired_lost_accums_ = 0;
}

bool Registry::attach_stream_hook(StreamHook hook) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (stream_hook_) {
    return false;
  }
  stream_hook_ = std::move(hook);
  return true;
}

void Registry::detach_stream_hook() {
  const std::lock_guard<std::mutex> lock(mu_);
  stream_hook_ = nullptr;
}

void Registry::set_ring_capacity(std::size_t capacity) {
  ring_capacity_.store(std::max<std::size_t>(1, capacity),
                       std::memory_order_relaxed);
}

CollectedMetrics collect_metrics_locked(Registry& registry,
                                        bool include_hist) {
  CollectedMetrics out;
  for (const auto& [name, accum] : registry.retired_accums()) {
    AccumData& merged = out.accums[name];
    if (merged.name == nullptr) {
      merged.name = accum.name;
      merged.kind = accum.kind;
    }
    merged.merge(accum);
  }
  out.dropped_accum_events = registry.retired_lost_accums();

  // Live buffers merge in tid order so gauge `last` is deterministic for a
  // fixed thread layout; sums and counts are order-independent anyway.
  std::vector<ThreadBuffer*> buffers = registry.live();
  std::sort(buffers.begin(), buffers.end(),
            [](const ThreadBuffer* a, const ThreadBuffer* b) {
              return a->tid < b->tid;
            });
  for (const ThreadBuffer* buffer : buffers) {
    for (const Accum& a : buffer->accums) {
      if (a.name.load(std::memory_order_acquire) != nullptr) {
        const AccumData data = a.data(include_hist);
        AccumData& merged = out.accums[data.name];
        if (merged.name == nullptr) {
          merged.name = data.name;
          merged.kind = data.kind;
        }
        merged.merge(data);
      }
    }
    out.dropped_accum_events +=
        buffer->lost_accums.load(std::memory_order_relaxed);
  }
  out.thread_count = registry.thread_count();
  return out;
}

}  // namespace detail

namespace {

using detail::AccumData;
using detail::Registry;
using detail::ThreadBuffer;

void merge_accum_into(MetricsSnapshot& snapshot, const std::string& name,
                      const AccumData& a) {
  switch (a.kind) {
    case EventKind::kSpan: {
      SpanStats& s = snapshot.spans[name];
      const bool first = s.count == 0;
      s.count += a.count;
      s.total_ns += a.total_ns;
      s.min_ns = first ? a.min_ns : std::min(s.min_ns, a.min_ns);
      s.max_ns = std::max(s.max_ns, a.max_ns);
      s.hist.merge(a.hist);
      break;
    }
    case EventKind::kCounter: {
      CounterStats& c = snapshot.counters[name];
      c.count += a.count;
      c.total += a.total;
      break;
    }
    case EventKind::kGauge: {
      GaugeStats& g = snapshot.gauges[name];
      const bool first = g.count == 0;
      g.count += a.count;
      g.last = a.last;
      g.min = first ? a.min_value : std::min(g.min, a.min_value);
      g.max = first ? a.max_value : std::max(g.max, a.max_value);
      break;
    }
  }
}

}  // namespace

MetricsSnapshot metrics_snapshot() {
  Registry& registry = Registry::instance();
  const std::lock_guard<std::mutex> lock(registry.mutex());

  MetricsSnapshot snapshot;
  const detail::CollectedMetrics collected =
      detail::collect_metrics_locked(registry, /*include_hist=*/true);
  for (const auto& [name, accum] : collected.accums) {
    merge_accum_into(snapshot, name, accum);
  }
  snapshot.dropped_accum_events = collected.dropped_accum_events;
  snapshot.thread_count = collected.thread_count;

  std::uint64_t ring_written = registry.retired_ring_written();
  std::uint64_t ring_kept = registry.retired_events().size();
  for (const ThreadBuffer* buffer : registry.live()) {
    const std::uint64_t written =
        buffer->ring_written.load(std::memory_order_acquire);
    ring_written += written;
    ring_kept += std::min<std::uint64_t>(written, buffer->ring_capacity);
  }
  snapshot.dropped_ring_events = ring_written - ring_kept;
  return snapshot;
}

TraceSnapshot trace_snapshot() {
  Registry& registry = Registry::instance();
  const std::lock_guard<std::mutex> lock(registry.mutex());

  TraceSnapshot snapshot;
  std::uint64_t written = registry.retired_ring_written();
  for (const auto& retired : registry.retired_events()) {
    snapshot.spans.push_back(TraceSpan{retired.event.name,
                                       retired.event.start_ns,
                                       retired.event.end_ns, retired.tid,
                                       retired.event.depth});
  }
  for (const ThreadBuffer* buffer : registry.live()) {
    const std::uint64_t buffer_written =
        buffer->ring_written.load(std::memory_order_acquire);
    const std::uint64_t kept =
        std::min<std::uint64_t>(buffer_written, buffer->ring_capacity);
    for (std::uint64_t k = buffer_written - kept; k < buffer_written; ++k) {
      const detail::SpanRecord event =
          buffer->ring[k % buffer->ring_capacity].load();
      snapshot.spans.push_back(TraceSpan{event.name, event.start_ns,
                                         event.end_ns, buffer->tid,
                                         event.depth});
    }
    written += buffer_written;
  }
  snapshot.dropped = written - snapshot.spans.size();
  std::stable_sort(snapshot.spans.begin(), snapshot.spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start_ns != b.start_ns) {
                       return a.start_ns < b.start_ns;
                     }
                     if (a.tid != b.tid) {
                       return a.tid < b.tid;
                     }
                     return a.depth < b.depth;
                   });
  return snapshot;
}

void reset() {
  Registry& registry = Registry::instance();
  const std::lock_guard<std::mutex> lock(registry.mutex());
  registry.reset_locked();
}

void set_ring_capacity(std::size_t capacity) {
  Registry::instance().set_ring_capacity(capacity);
}

std::size_t ring_capacity() { return Registry::instance().ring_capacity(); }

std::uint64_t internal_allocations() {
  return Registry::instance().allocations();
}

}  // namespace dsslice::obs
