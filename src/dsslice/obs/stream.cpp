#include "dsslice/obs/stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dsslice/obs/export.hpp"
#include "dsslice/obs/internal.hpp"
#include "dsslice/obs/registry.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice::obs {

namespace {

using detail::AccumData;
using detail::Registry;
using detail::ThreadBuffer;

using Clock = std::chrono::steady_clock;

/// Drains the completed ring entries of one buffer behind its published
/// write index (caller holds the registry mutex; the owning thread keeps
/// recording concurrently). Appends the surviving entries to `out` and
/// returns how many were lost to wraparound. Every ring index is
/// classified exactly once across the lifetime of the cursor: kept or
/// dropped — the lossless-accounting invariant the stress test pins.
std::uint64_t drain_ring_locked(ThreadBuffer& buffer,
                                std::vector<TraceSpan>& out) {
  const std::uint64_t published =
      buffer.ring_written.load(std::memory_order_acquire);
  std::uint64_t cursor = buffer.ring_drained;
  if (published == cursor) {
    return 0;
  }
  const std::uint64_t cap = buffer.ring_capacity;
  std::uint64_t dropped = 0;
  if (published - cursor > cap) {  // already lapped before we got here
    dropped += published - cap - cursor;
    cursor = published - cap;
  }
  const std::size_t first_out = out.size();
  for (std::uint64_t i = cursor; i < published; ++i) {
    const detail::SpanRecord rec = buffer.ring[i % cap].load();
    out.push_back(
        TraceSpan{rec.name, rec.start_ns, rec.end_ns, buffer.tid, rec.depth});
  }
  // The writer kept going while we copied. Re-read the published index:
  // entry i is torn iff some write with index >= i + cap reused its slot,
  // and the writer can be at most one unpublished write (index `now`)
  // ahead — so exactly the entries with i <= now - cap are suspect.
  // Discard them (they re-enter the accounting as drops; their slots'
  // *new* occupants are still ahead of the cursor and get drained next
  // tick, so nothing is double-counted).
  const std::uint64_t now = buffer.ring_written.load(std::memory_order_acquire);
  if (now > cap && now - cap >= cursor) {
    const std::uint64_t n =
        std::min<std::uint64_t>(published, now - cap + 1) - cursor;
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(first_out),
              out.begin() + static_cast<std::ptrdiff_t>(first_out + n));
    dropped += n;
  }
  buffer.ring_drained = published;
  return dropped;
}

}  // namespace

struct StreamSink::Impl {
  explicit Impl(StreamOptions opts) : options(std::move(opts)) {
    options.interval_ms = std::max<std::uint32_t>(1, options.interval_ms);
  }

  StreamOptions options;

  std::thread flusher;
  std::mutex tick_mu;  // serializes ticks (flusher vs tick_now/stop)
  std::mutex cv_mu;
  std::condition_variable cv;
  bool stop_requested = false;  // guarded by cv_mu
  bool started = false;
  bool stopped = false;

  std::FILE* chunk_file = nullptr;
  std::FILE* delta_file = nullptr;

  /// Cumulative values as of the last tick, keyed by metric name.
  std::map<std::string, AccumData> reported;
  /// Ring tails handed over by Registry::retire (guarded by the registry
  /// mutex — the hook runs under it).
  std::vector<TraceSpan> pending_retired;
  std::uint64_t pending_retired_dropped = 0;

  std::vector<TraceSpan> scratch;
  std::string chunk_buf;  // reused per-tick chunk serialization buffer
  std::uint64_t seq = 0;
  Clock::time_point start_time{};
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::uint64_t> spans_streamed{0};
  std::atomic<std::uint64_t> spans_dropped{0};
  std::atomic<std::uint64_t> delta_records{0};

  // Heartbeat state across ticks.
  double prev_done = 0.0;
  Clock::time_point prev_tick_time{};
  std::uint64_t checkpoint_marks = 0;
  Clock::time_point checkpoint_time{};

  void run();
  void tick(bool final_tick);
  void write_chunk(const std::vector<TraceSpan>& spans);
  std::uint64_t write_deltas(
      const std::map<std::string, AccumData>& cumulative);
  void write_heartbeat(const std::map<std::string, AccumData>& cumulative,
                       double wall_ms, std::uint32_t threads);
  void close_files(bool finalize_chunk);
};

void StreamSink::Impl::run() {
  std::unique_lock<std::mutex> lock(cv_mu);
  while (!stop_requested) {
    cv.wait_for(lock, std::chrono::milliseconds(options.interval_ms));
    if (stop_requested) {
      break;  // stop() runs the final tick itself
    }
    lock.unlock();
    tick(/*final_tick=*/false);
    lock.lock();
  }
}

void StreamSink::Impl::tick(bool final_tick) {
  const std::lock_guard<std::mutex> tick_lock(tick_mu);
  scratch.clear();
  std::uint64_t dropped_now = 0;
  detail::CollectedMetrics collected;
  {
    Registry& registry = Registry::instance();
    const std::lock_guard<std::mutex> lock(registry.mutex());
    // Retired tails first so a thread's spans stay in record order.
    scratch.insert(scratch.end(), pending_retired.begin(),
                   pending_retired.end());
    dropped_now += pending_retired_dropped;
    pending_retired.clear();
    pending_retired_dropped = 0;
    for (ThreadBuffer* buffer : registry.live()) {
      dropped_now += drain_ring_locked(*buffer, scratch);
    }
    collected = detail::collect_metrics_locked(registry,
                                               /*include_hist=*/false);
  }
  // Registry mutex released — recorders proceed; format and write here.
  ++seq;
  write_chunk(scratch);
  const std::uint64_t deltas = write_deltas(collected.accums);
  spans_streamed.fetch_add(scratch.size(), std::memory_order_relaxed);
  spans_dropped.fetch_add(dropped_now, std::memory_order_relaxed);
  delta_records.fetch_add(deltas, std::memory_order_relaxed);
  ticks.fetch_add(1, std::memory_order_relaxed);

  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start_time)
          .count();
  if (delta_file != nullptr) {
    std::fprintf(delta_file,
                 "{\"type\":\"tick\",\"seq\":%llu,\"wall_ms\":%.3f,"
                 "\"spans\":%zu,\"deltas\":%llu,\"spans_total\":%llu,"
                 "\"dropped_total\":%llu,\"threads\":%u,\"final\":%s}\n",
                 static_cast<unsigned long long>(seq), wall_ms,
                 scratch.size(), static_cast<unsigned long long>(deltas),
                 static_cast<unsigned long long>(
                     spans_streamed.load(std::memory_order_relaxed)),
                 static_cast<unsigned long long>(
                     spans_dropped.load(std::memory_order_relaxed)),
                 collected.thread_count, final_tick ? "true" : "false");
    std::fflush(delta_file);
  }
  if (chunk_file != nullptr) {
    std::fflush(chunk_file);
  }
  write_heartbeat(collected.accums, wall_ms, collected.thread_count);
  reported = std::move(collected.accums);
}

void StreamSink::Impl::write_chunk(const std::vector<TraceSpan>& spans) {
  if (chunk_file == nullptr || spans.empty()) {
    return;
  }
  // Serialized by hand into a reused buffer, one fwrite per tick: the
  // chunk writer touches every recorded span, and a stdio call plus a
  // printf double conversion per span is most of the streaming tax the
  // perf_obs gate measures on small machines.
  chunk_buf.clear();
  for (const TraceSpan& span : spans) {
    append_chrome_trace_event(chunk_buf, span);
    chunk_buf += ",\n";
  }
  std::fwrite(chunk_buf.data(), 1, chunk_buf.size(), chunk_file);
}

std::uint64_t StreamSink::Impl::write_deltas(
    const std::map<std::string, AccumData>& cumulative) {
  if (delta_file == nullptr) {
    return 0;
  }
  std::uint64_t written = 0;
  for (const auto& [name, cum] : cumulative) {
    const auto prev_it = reported.find(name);
    const AccumData* prev = prev_it == reported.end() ? nullptr
                                                      : &prev_it->second;
    const std::uint64_t prev_count = prev != nullptr ? prev->count : 0;
    if (cum.count == prev_count) {
      continue;  // untouched since the last tick
    }
    const std::string escaped = json_escape(name);
    const unsigned long long dc =
        static_cast<unsigned long long>(cum.count - prev_count);
    switch (cum.kind) {
      case EventKind::kSpan: {
        const std::uint64_t prev_total = prev != nullptr ? prev->total_ns : 0;
        std::fprintf(
            delta_file,
            "{\"type\":\"delta\",\"seq\":%llu,\"kind\":\"span\","
            "\"name\":\"%s\",\"count\":%llu,\"total_ns\":%llu,"
            "\"cum_count\":%llu,\"cum_total_ns\":%llu,"
            "\"min_ns\":%llu,\"max_ns\":%llu}\n",
            static_cast<unsigned long long>(seq), escaped.c_str(), dc,
            static_cast<unsigned long long>(cum.total_ns - prev_total),
            static_cast<unsigned long long>(cum.count),
            static_cast<unsigned long long>(cum.total_ns),
            static_cast<unsigned long long>(cum.min_ns),
            static_cast<unsigned long long>(cum.max_ns));
        break;
      }
      case EventKind::kCounter: {
        const double prev_total = prev != nullptr ? prev->total : 0.0;
        std::fprintf(delta_file,
                     "{\"type\":\"delta\",\"seq\":%llu,\"kind\":\"counter\","
                     "\"name\":\"%s\",\"count\":%llu,\"total\":%s,"
                     "\"cum_count\":%llu,\"cum_total\":%s}\n",
                     static_cast<unsigned long long>(seq), escaped.c_str(),
                     dc, format_metric_value(cum.total - prev_total).c_str(),
                     static_cast<unsigned long long>(cum.count),
                     format_metric_value(cum.total).c_str());
        break;
      }
      case EventKind::kGauge: {
        std::fprintf(delta_file,
                     "{\"type\":\"delta\",\"seq\":%llu,\"kind\":\"gauge\","
                     "\"name\":\"%s\",\"count\":%llu,\"last\":%s,"
                     "\"min\":%s,\"max\":%s,\"cum_count\":%llu}\n",
                     static_cast<unsigned long long>(seq), escaped.c_str(),
                     dc, format_metric_value(cum.last).c_str(),
                     format_metric_value(cum.min_value).c_str(),
                     format_metric_value(cum.max_value).c_str(),
                     static_cast<unsigned long long>(cum.count));
        break;
      }
    }
    ++written;
  }
  return written;
}

void StreamSink::Impl::write_heartbeat(
    const std::map<std::string, AccumData>& cumulative, double wall_ms,
    std::uint32_t threads) {
  if (options.status_path.empty() && !options.heartbeat_stderr) {
    return;
  }
  const auto value_of = [&](const char* name, double fallback) {
    const auto it = cumulative.find(name);
    if (it == cumulative.end()) {
      return fallback;
    }
    return it->second.kind == EventKind::kCounter ? it->second.total
                                                  : it->second.last;
  };
  const auto now = Clock::now();
  const double done = value_of("sweep.progress.scenarios_done", 0.0);
  const double total = value_of("sweep.progress.scenarios_total", 0.0);
  const double successes = value_of("sweep.progress.successes", 0.0);
  const double wave = value_of("sweep.progress.wave", 0.0);
  const double waves_total = value_of("sweep.progress.waves_total", 0.0);
  const double shards_done = value_of("sweep.progress.shards_done", 0.0);
  const double shards_resumed =
      value_of("sweep.progress.shards_resumed", 0.0);
  const double rate_ewma =
      value_of("sweep.progress.scenarios_per_sec_ewma", 0.0);
  const bool sweep = cumulative.count("sweep.progress.scenarios_total") > 0;

  // Instantaneous rate across this tick.
  double rate_inst = 0.0;
  if (prev_tick_time.time_since_epoch().count() != 0) {
    const double dt = std::chrono::duration<double>(now - prev_tick_time)
                          .count();
    if (dt > 0.0 && done >= prev_done) {
      rate_inst = (done - prev_done) / dt;
    }
  }
  prev_done = done;
  prev_tick_time = now;

  // Checkpoint age: time since the save_ms gauge last moved.
  double checkpoint_age_ms = -1.0;
  const auto ckpt = cumulative.find("sweep.checkpoint.save_ms");
  if (ckpt != cumulative.end()) {
    if (ckpt->second.count != checkpoint_marks) {
      checkpoint_marks = ckpt->second.count;
      checkpoint_time = now;
    }
    checkpoint_age_ms =
        std::chrono::duration<double, std::milli>(now - checkpoint_time)
            .count();
  }

  const double remaining = total > done ? total - done : 0.0;
  const double rate_for_eta = rate_ewma > 0.0 ? rate_ewma : rate_inst;
  const double eta_seconds =
      rate_for_eta > 0.0 ? remaining / rate_for_eta : -1.0;
  const double success_ratio = done > 0.0 ? successes / done : 0.0;

  if (!options.status_path.empty()) {
    std::string body;
    body += "{\"type\":\"heartbeat\",\"seq\":" + std::to_string(seq);
    body += ",\"wall_ms\":" + format_fixed(wall_ms, 3);
    body += ",\"sweep\":" + std::string(sweep ? "true" : "false");
    body += ",\"scenarios_done\":" + format_metric_value(done);
    body += ",\"scenarios_total\":" + format_metric_value(total);
    body += ",\"success_ratio\":" + format_fixed(success_ratio, 6);
    body += ",\"rate\":" + format_fixed(rate_inst, 1);
    body += ",\"rate_ewma\":" + format_fixed(rate_ewma, 1);
    body += ",\"wave\":" + format_metric_value(wave);
    body += ",\"waves_total\":" + format_metric_value(waves_total);
    body += ",\"shards_done\":" + format_metric_value(shards_done);
    body += ",\"shards_resumed\":" + format_metric_value(shards_resumed);
    body += ",\"checkpoint_age_ms\":" + format_fixed(checkpoint_age_ms, 1);
    body += ",\"eta_seconds\":" + format_fixed(eta_seconds, 1);
    body += ",\"spans_streamed\":" +
            std::to_string(spans_streamed.load(std::memory_order_relaxed));
    body += ",\"spans_dropped\":" +
            std::to_string(spans_dropped.load(std::memory_order_relaxed));
    body += ",\"threads\":" + std::to_string(threads);
    body += "}\n";
    const std::string tmp = options.status_path + ".tmp";
    if (std::FILE* f = std::fopen(tmp.c_str(), "wb")) {
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::rename(tmp.c_str(), options.status_path.c_str());
    }
  }

  if (options.heartbeat_stderr) {
    if (sweep) {
      const double pct = total > 0.0 ? 100.0 * done / total : 0.0;
      std::fprintf(
          stderr,
          "[stream] %.0f/%.0f (%.1f%%) ok %.1f%% | %.0f/s ewma %.0f/s | "
          "wave %.0f/%.0f | shards %.0f (+%.0f resumed) | ckpt %s | "
          "eta %s\n",
          done, total, pct, 100.0 * success_ratio, rate_inst, rate_ewma,
          wave, waves_total, shards_done, shards_resumed,
          checkpoint_age_ms < 0.0
              ? "-"
              : (format_fixed(checkpoint_age_ms / 1000.0, 1) + "s").c_str(),
          eta_seconds < 0.0 ? "-"
                            : (format_fixed(eta_seconds, 0) + "s").c_str());
    } else {
      std::fprintf(stderr,
                   "[stream] tick %llu | %llu spans (%llu dropped) | "
                   "%llu deltas | %u threads\n",
                   static_cast<unsigned long long>(seq),
                   static_cast<unsigned long long>(
                       spans_streamed.load(std::memory_order_relaxed)),
                   static_cast<unsigned long long>(
                       spans_dropped.load(std::memory_order_relaxed)),
                   static_cast<unsigned long long>(
                       delta_records.load(std::memory_order_relaxed)),
                   threads);
    }
  }
}

void StreamSink::Impl::close_files(bool finalize_chunk) {
  if (chunk_file != nullptr) {
    if (finalize_chunk) {
      // Close the array with a summary event (no trailing comma) so the
      // final file is a strict JSON document.
      std::fprintf(chunk_file,
                   "{\"name\":\"obs.stream.stop\",\"cat\":\"dsslice\","
                   "\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,"
                   "\"dur\":0.000,\"args\":{\"spans_streamed\":%llu,"
                   "\"spans_dropped\":%llu,\"ticks\":%llu}}\n]\n",
                   static_cast<unsigned long long>(
                       spans_streamed.load(std::memory_order_relaxed)),
                   static_cast<unsigned long long>(
                       spans_dropped.load(std::memory_order_relaxed)),
                   static_cast<unsigned long long>(
                       ticks.load(std::memory_order_relaxed)));
    }
    std::fclose(chunk_file);
    chunk_file = nullptr;
  }
  if (delta_file != nullptr) {
    std::fclose(delta_file);
    delta_file = nullptr;
  }
}

StreamSink::StreamSink(StreamOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

StreamSink::~StreamSink() { stop(); }

void StreamSink::start() {
  Impl& impl = *impl_;
  if (impl.started) {
    throw ConfigError("StreamSink::start called twice");
  }
  if (!impl.options.trace_chunk_path.empty()) {
    impl.chunk_file =
        std::fopen(impl.options.trace_chunk_path.c_str(), "wb");
    if (impl.chunk_file == nullptr) {
      throw ConfigError("cannot open trace chunk file " +
                        impl.options.trace_chunk_path);
    }
    std::fputs("[\n", impl.chunk_file);
    std::fflush(impl.chunk_file);
  }
  if (!impl.options.metrics_delta_path.empty()) {
    impl.delta_file =
        std::fopen(impl.options.metrics_delta_path.c_str(), "wb");
    if (impl.delta_file == nullptr) {
      impl.close_files(false);
      throw ConfigError("cannot open metrics delta file " +
                        impl.options.metrics_delta_path);
    }
    std::fputs(
        "{\"type\":\"hello\",\"format\":\"dsslice-metrics-delta\","
        "\"version\":1}\n",
        impl.delta_file);
    std::fflush(impl.delta_file);
  }
  const bool attached = Registry::instance().attach_stream_hook(
      [this](ThreadBuffer& buffer) {
        Impl& i = *impl_;  // runs under the registry mutex (retire())
        i.pending_retired_dropped +=
            drain_ring_locked(buffer, i.pending_retired);
      });
  if (!attached) {
    impl.close_files(false);
    throw ConfigError("another StreamSink is already attached");
  }
  impl.start_time = Clock::now();
  impl.started = true;
  impl.flusher = std::thread([&impl] { impl.run(); });
}

void StreamSink::stop() {
  Impl& impl = *impl_;
  if (!impl.started || impl.stopped) {
    return;
  }
  impl.stopped = true;
  {
    const std::lock_guard<std::mutex> lock(impl.cv_mu);
    impl.stop_requested = true;
  }
  impl.cv.notify_all();
  impl.flusher.join();
  // Final drain: with recorders quiescent (the ObsCli::finish ordering)
  // the cumulative values written here reconcile bit-for-bit with a
  // quiescent metrics_snapshot().
  impl.tick(/*final_tick=*/true);
  Registry::instance().detach_stream_hook();
  impl.close_files(/*finalize_chunk=*/true);
}

void StreamSink::tick_now() {
  Impl& impl = *impl_;
  if (impl.started && !impl.stopped) {
    impl.tick(/*final_tick=*/false);
  }
}

bool StreamSink::active() const { return impl_->started && !impl_->stopped; }

StreamStats StreamSink::stats() const {
  const Impl& impl = *impl_;
  StreamStats stats;
  stats.ticks = impl.ticks.load(std::memory_order_relaxed);
  stats.spans_streamed = impl.spans_streamed.load(std::memory_order_relaxed);
  stats.spans_dropped = impl.spans_dropped.load(std::memory_order_relaxed);
  stats.delta_records = impl.delta_records.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dsslice::obs
